import signal
import threading
import time

from helpers import call_within


class TestCallWithin:
    def test_stops_an_endless_loop(self):
        def spin():
            while True:
                pass

        threads = threading.active_count()
        start = time.monotonic()
        assert call_within(0.2, spin) is None
        assert time.monotonic() - start < 1
        assert threading.active_count() == threads

    def test_survives_a_broad_except(self):
        """The overrun is no Exception, so a call that catches Exception
        and keeps looping is still stopped."""
        def stubborn():
            while True:
                try:
                    while True:
                        pass
                except Exception:
                    pass

        assert call_within(0.2, stubborn) is None

    def test_restores_the_alarm_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        call_within(0.2, lambda: None)
        call_within(0.05, lambda: time.sleep(1))
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
