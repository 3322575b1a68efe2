"""Progress updates and the throttled printer."""

import io

import pytest

from repro.obs import ProgressPrinter, ProgressUpdate


class TestProgressUpdate:
    def test_render_includes_counts_and_confirms(self):
        update = ProgressUpdate(
            phase="fuzz", done=12, total=40, confirms=3, elapsed_s=4.2
        )
        text = update.render()
        assert "[fuzz] 12/40 (30%)" in text
        assert "3 confirmed" in text
        assert "4.2s elapsed" in text
        assert "eta" in text

    def test_eta_scales_linearly(self):
        update = ProgressUpdate(phase="fuzz", done=10, total=40, elapsed_s=5.0)
        assert update.eta_s == pytest.approx(15.0)

    def test_eta_undefined_before_first_settle(self):
        assert ProgressUpdate(phase="fuzz", done=0, total=40).eta_s is None

    def test_final_omits_eta(self):
        update = ProgressUpdate(phase="fuzz", done=40, total=40, elapsed_s=8.0)
        assert update.final
        assert "eta" not in update.render()

    def test_eta_uses_remaining_scheduled_work_when_known(self):
        # An adaptive campaign early-stops pairs: 30 chunks were notionally
        # possible but only 5 remain scheduled.  ETA covers the 5.
        update = ProgressUpdate(
            phase="fuzz", done=10, total=40, elapsed_s=5.0, remaining=5
        )
        assert update.eta_s == pytest.approx(2.5)

    def test_final_when_nothing_remains_despite_total(self):
        # Early exit: done < total but the scheduler has retired the rest.
        update = ProgressUpdate(
            phase="fuzz", done=10, total=40, elapsed_s=5.0, remaining=0
        )
        assert update.final

    def test_not_final_while_work_remains(self):
        update = ProgressUpdate(
            phase="fuzz", done=40, total=40, elapsed_s=5.0, remaining=5
        )
        assert not update.final

    def test_confirms_omitted_when_none(self):
        text = ProgressUpdate(phase="detect", done=1, total=2).render()
        assert "confirmed" not in text

    def test_zero_total_renders(self):
        assert "100%" in ProgressUpdate(phase="fuzz", done=0, total=0).render()


class TestProgressPrinter:
    def _update(self, done, total=10):
        return ProgressUpdate(phase="fuzz", done=done, total=total)

    def test_throttles_to_interval(self):
        clock_now = [0.0]
        stream = io.StringIO()
        printer = ProgressPrinter(
            stream, interval=1.0, clock=lambda: clock_now[0]
        )
        printer(self._update(1))  # first one prints
        printer(self._update(2))  # throttled: same instant
        clock_now[0] = 0.5
        printer(self._update(3))  # throttled: under interval
        clock_now[0] = 1.5
        printer(self._update(4))  # interval elapsed
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "1/10" in lines[0]
        assert "4/10" in lines[1]

    def test_final_update_always_prints(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream, interval=100.0, clock=lambda: 0.0)
        printer(self._update(1))
        printer(self._update(10))  # final despite throttle window
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "10/10" in lines[1]
