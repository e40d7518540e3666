"""Known-bad fixture: phase literal with no PHASES declaration (EM006)."""


def run(device):
    with device.span("sort", kind="phase"):
        pass
