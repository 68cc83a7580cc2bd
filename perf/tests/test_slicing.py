"""The slice-floor estimator and the slice-boundary arithmetic."""

import random
import time

import pytest

from perf.slicing import SliceClock, slice_floor, slice_stops


def test_floor_of_clean_repetitions_is_their_common_time():
    clean = [0.1, 0.2, 0.3, 0.05]
    assert slice_floor([clean] * 5) == pytest.approx(sum(clean))


def test_a_burst_in_every_repetition_still_leaves_the_floor():
    # no single repetition is clean, so best-of-whole-runs is biased;
    # the bursts overlap different slices, so the slice floor is not
    clean = [0.1] * 20
    matrix = []
    for rep in range(5):
        row = list(clean)
        for j in range(rep * 4, rep * 4 + 3):
            row[j] += 0.5
        matrix.append(row)
    best_whole_run = min(sum(row) for row in matrix)
    assert best_whole_run == pytest.approx(sum(clean) + 1.5)
    assert slice_floor(matrix) == pytest.approx(sum(clean))


def test_floor_is_biased_only_where_every_repetition_was_hit():
    matrix = [[0.1, 0.9], [0.1, 0.7], [0.4, 0.8]]
    assert slice_floor(matrix) == pytest.approx(0.1 + 0.7)


def test_floor_under_random_bursts_stays_near_the_truth():
    rng = random.Random(7)
    clean = [0.05] * 40
    matrix = [[t + (0.2 if rng.random() < 0.15 else 0.0) for t in clean]
              for _ in range(5)]
    assert min(sum(row) for row in matrix) > sum(clean) * 1.15
    assert slice_floor(matrix) == pytest.approx(sum(clean), rel=0.02)


def test_calibration_cancels_a_slowdown_that_outlasts_the_run():
    from perf.slicing import REFERENCE_KERNEL_S, speed_factor
    clean = [[0.1, 0.2, 0.3]] * 5
    kernel = [[REFERENCE_KERNEL_S] * 4] * 5
    for slowdown in (1.0, 1.08, 1.3):
        matrix = [[t * slowdown for t in row] for row in clean]
        factor = speed_factor([[c * slowdown for c in row]
                               for row in kernel])
        assert factor == pytest.approx(slowdown)
        assert slice_floor(matrix) / factor == pytest.approx(0.6)


def test_bursts_on_calibration_samples_do_not_move_the_factor():
    from perf.slicing import REFERENCE_KERNEL_S, speed_factor
    quiet = [[REFERENCE_KERNEL_S] * 6 for _ in range(5)]
    noisy = [list(row) for row in quiet]
    for rep in range(4):            # most samples of most reps are hit
        for j in range(6):
            if (rep + j) % 3:
                noisy[rep][j] *= 1.6
    assert speed_factor(noisy) == pytest.approx(speed_factor(quiet))
    with pytest.raises(ValueError):
        speed_factor([[], []])


def test_floor_rejects_ragged_or_empty_input():
    with pytest.raises(ValueError):
        slice_floor([])
    with pytest.raises(ValueError):
        slice_floor([[0.1, 0.2], [0.1]])
    with pytest.raises(ValueError):
        slice_floor([[], []])


def test_stops_are_every_boundary_then_the_target():
    assert slice_stops(0, 250, 0, 100) == [100, 200, 250]
    assert slice_stops(0, 300, 0, 100) == [100, 200, 300]
    assert slice_stops(100, 130, 0, 100) == [130]
    assert slice_stops(2_000_000, 2_100_000, 2_000_000, 50_000) == [
        2_050_000, 2_100_000]


def test_stops_with_nothing_to_run():
    assert slice_stops(500, 500, 0, 100) == [500]
    with pytest.raises(ValueError):
        slice_stops(0, 10, 0, 0)


def test_chaos_barriers_do_not_move_or_repeat_boundaries():
    # the runner calls run(until=...) once per chaos action, then for
    # the window end and the drain end; some barriers sit on a slice
    # boundary, some between two
    origin, width = 2_000_000, 50_000
    barriers = [600_000, 1_100_000, 1_125_000, 1_500_000, 2_000_000,
                2_420_000]
    clock = SliceClock(width)
    clock.origin = origin
    now, visited = origin, []
    for barrier in barriers:
        stops = slice_stops(now, origin + barrier, origin, width)
        assert stops[-1] == origin + barrier
        assert stops == sorted(set(stops)) and stops[0] > now
        visited += [s for s in stops if clock.is_boundary(s)]
        now = stops[-1]
    # exactly the boundaries one uninterrupted run would cross
    assert visited == slice_stops(origin, now, origin, width)[:-1]
    assert len(visited) == 2_420_000 // width


def test_clock_slices_sum_to_the_whole_run():
    clock = SliceClock(100)
    clock.start(1_000)
    for pending in (3, 5):
        clock.cross(pending)
    clock.finish()
    times = clock.slice_times()
    assert len(times) == 3 and clock.pending == [3, 5]
    # one calibration sample per boundary, taken outside the slices
    assert len(clock.calibration) == 3
    assert all(t >= 0 for t in times)
    assert sum(times) + sum(clock.calibration) <= time.perf_counter() \
        - clock.sealed_at
    assert clock.is_boundary(1_200) and not clock.is_boundary(1_250)
