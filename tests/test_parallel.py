"""WorkerPool.ordered and the OpenBLAS thread pin."""

import threading
import time

import numpy as np
import pytest

from kronstap import parallel
from kronstap.parallel import WorkerPool, one_blas_thread


def _filled(i, buffer):
    buffer[...] = i
    return i, buffer


class TestOrdered:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_yields_every_call_in_order(self, threads, count):
        buffers = [np.empty(4) for _ in range(threads + (threads > 1))]
        with WorkerPool(threads) as pool:
            seen = [(i, buffer.copy()) for i, buffer in
                    pool.ordered(_filled, count, buffers)]
        assert [i for i, _ in seen] == list(range(count))
        for i, values in seen:
            assert (values == i).all()

    def test_a_result_keeps_its_buffer_until_the_next_is_asked_for(self):
        # later calls run while the caller holds a result; none may write
        # the buffer it holds
        buffers = [np.empty(1000) for _ in range(3)]

        def slow_fill(i, buffer):
            time.sleep(0.002)
            return _filled(i, buffer)

        with WorkerPool(2) as pool:
            for i, buffer in pool.ordered(slow_fill, 12, buffers):
                time.sleep(0.005)
                assert (buffer == i).all()

    def test_the_serial_pool_uses_the_first_buffer(self):
        buffers = [np.empty(2), np.empty(2)]
        held = [buffer for _, buffer in
                WorkerPool(1).ordered(_filled, 3, buffers)]
        assert all(buffer is buffers[0] for buffer in held)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_the_first_failing_call_raises_after_the_earlier_results(
            self, threads):
        # call 3 fails first in time; call 2's error is the one raised,
        # after results 0 and 1, as in the serial loop
        def fill(i, buffer):
            if i == 2:
                time.sleep(0.05)
            if i in (2, 3):
                raise ValueError(f"call {i}")
            return _filled(i, buffer)

        buffers = [np.empty(1) for _ in range(threads + (threads > 1))]
        got = []
        with WorkerPool(threads) as pool:
            with pytest.raises(ValueError, match="call 2"):
                for i, _ in pool.ordered(fill, 8, buffers):
                    got.append(i)
        assert got == [0, 1]

    def test_closing_early_waits_for_the_calls_under_way(self):
        running = []

        def fill(i, buffer):
            running.append(i)
            time.sleep(0.01)
            running.remove(i)
            return _filled(i, buffer)

        before = threading.active_count()
        with WorkerPool(2) as pool:
            stream = pool.ordered(fill, 50, [np.empty(1) for _ in range(3)])
            next(stream)
            stream.close()
            assert running == []
        assert threading.active_count() == before


class TestOneBlasThread:
    @pytest.fixture()
    def calls(self):
        calls = parallel._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread calls")
        return calls

    def test_pins_one_thread_and_restores_the_count(self, calls):
        get, set_ = calls
        old = get()
        try:
            set_(2)
            with one_blas_thread():
                assert get() == 1
            assert get() == 2
            with pytest.raises(RuntimeError):
                with one_blas_thread():
                    raise RuntimeError("inside")
            assert get() == 2
        finally:
            set_(old)

    def test_without_the_symbols_the_block_runs_unpinned(self, monkeypatch):
        monkeypatch.setattr(parallel, "_blas_thread_calls", lambda: None)
        ran = []
        with one_blas_thread():
            ran.append(True)
        assert ran == [True]
