"""Host-speed calibration."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402


def test_speed_is_the_median_of_the_calibrations_and_the_workers_end():
    with common.HostSpeed() as host:
        host.calibrate()
        host.calibrate()
        assert len(host.speeds) == 2 * common.KERNELS_PER_CALIBRATION
        assert all(s > 0 for s in host.speeds)
        assert host.speed == common.median(host.speeds)
        workers = list(host.workers)
    assert all(w.returncode == 0 for w in workers)
