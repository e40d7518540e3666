"""Unit tests for EM files: page-granular read/write accounting."""

import pytest

from repro.em import Device


def fill(device, n, name="f"):
    f = device.new_file(name)
    with f.writer() as w:
        for i in range(n):
            w.append((i,))
    return f


class TestWriter:
    def test_write_charges_one_io_per_page(self, small_device):
        before = small_device.stats.writes
        fill(small_device, 16)  # B=4 -> 4 pages
        assert small_device.stats.writes - before == 4

    def test_partial_final_page_still_costs_one_io(self, small_device):
        fill(small_device, 5)  # 1 full + 1 partial page
        assert small_device.stats.writes == 2

    def test_empty_file_costs_nothing(self, small_device):
        f = small_device.new_file("empty")
        f.writer().close()
        assert small_device.stats.writes == 0
        assert len(f) == 0

    def test_sealed_file_rejects_new_writer(self, small_device):
        f = fill(small_device, 3)
        with pytest.raises(RuntimeError):
            f.writer()

    def test_closed_writer_rejects_append(self, small_device):
        f = small_device.new_file("g")
        w = f.writer()
        w.close()
        with pytest.raises(RuntimeError):
            w.append((1,))


class TestSequentialReader:
    def test_scan_charges_one_read_per_page(self, small_device):
        f = fill(small_device, 16)
        small_device.stats.reset()
        assert list(f.scan()) == [(i,) for i in range(16)]
        assert small_device.stats.reads == 4

    def test_rescan_charges_again(self, small_device):
        f = fill(small_device, 8)
        small_device.stats.reset()
        list(f.scan())
        list(f.scan())
        assert small_device.stats.reads == 4

    def test_peek_does_not_advance(self, small_device):
        f = fill(small_device, 4)
        r = f.reader()
        assert r.peek() == (0,)
        assert r.next() == (0,)

    def test_peek_within_page_charges_once(self, small_device):
        f = fill(small_device, 4)
        small_device.stats.reset()
        r = f.reader()
        r.peek()
        r.peek()
        r.next()
        r.next()
        assert small_device.stats.reads == 1

    def test_read_block_stops_at_end(self, small_device):
        f = fill(small_device, 6)
        r = f.reader()
        assert len(r.read_block(10)) == 6
        assert r.exhausted

    def test_skip_to_does_not_charge(self, small_device):
        f = fill(small_device, 40)
        small_device.stats.reset()
        r = f.reader()
        r.skip_to(36)
        assert small_device.stats.reads == 0
        r.next()
        assert small_device.stats.reads == 1

    def test_skip_backwards_rejected(self, small_device):
        f = fill(small_device, 8)
        r = f.reader()
        r.read_block(5)
        with pytest.raises(ValueError):
            r.skip_to(2)

    def test_exhausted_peek_raises(self, small_device):
        f = fill(small_device, 1)
        r = f.reader()
        r.next()
        with pytest.raises(StopIteration):
            r.peek()


class TestFileSegment:
    def test_segment_reads_only_its_range(self, small_device):
        f = fill(small_device, 20)
        small_device.stats.reset()
        seg = f.segment(4, 8)  # exactly page 1
        assert list(seg.scan()) == [(i,) for i in range(4, 8)]
        assert small_device.stats.reads == 1

    def test_straddling_segment_charges_both_pages(self, small_device):
        f = fill(small_device, 20)
        small_device.stats.reset()
        seg = f.segment(2, 6)  # straddles pages 0 and 1
        list(seg.scan())
        assert small_device.stats.reads == 2

    def test_n_pages(self, small_device):
        f = fill(small_device, 20)
        assert f.segment(0, 4).n_pages == 1
        assert f.segment(2, 6).n_pages == 2
        assert f.segment(0, 0).n_pages == 0

    def test_out_of_range_rejected(self, small_device):
        f = fill(small_device, 4)
        with pytest.raises(IndexError):
            f.segment(2, 9)

    def test_subsegment_bounds_checked(self, small_device):
        f = fill(small_device, 10)
        seg = f.segment(2, 8)
        with pytest.raises(IndexError):
            seg.subsegment(0, 5)

    def test_free_setup_does_not_charge(self):
        device = Device(M=16, B=4)
        device.file_from_tuples_free([(i,) for i in range(100)])
        assert device.stats.total == 0

    def test_charged_setup_charges(self):
        device = Device(M=16, B=4)
        device.file_from_tuples([(i,) for i in range(100)])
        assert device.stats.writes == 25


class TestDeviceValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Device(M=0, B=1)
        with pytest.raises(ValueError):
            Device(M=4, B=0)
        with pytest.raises(ValueError):
            Device(M=4, B=8)

    def test_pages_helper(self, small_device):
        assert small_device.pages(0) == 0
        assert small_device.pages(1) == 1
        assert small_device.pages(4) == 1
        assert small_device.pages(5) == 2
