"""Fixture: fully compliant core module (no findings expected)."""

#: Phase names this module attributes I/O to (emlint EM006).
PHASES = ("load",)


def load(rel):
    device = rel.device
    with device.span("load", kind="phase"):
        with device.memory.hold(len(rel)):
            rows = list(rel.data.scan())
    return rows
