import time

import pytest

from pilotsim.engine import LaunchLane, RealtimeEngine, SimEngine


def test_events_fire_in_time_then_insertion_order():
    eng = SimEngine()
    seen = []
    eng.at(10, lambda: seen.append('b'))
    eng.at(5, lambda: seen.append('a'))
    eng.at(10, lambda: seen.append('c'))
    eng.run()
    assert seen == ['a', 'b', 'c']
    assert eng.now == 10


def test_now_stays_one_int_object_across_one_timestamp():
    """Equal timestamps are distinct int objects above the small-int
    cache; `now` keeps the first, so the rows of one instant share it."""
    first, second = 10**6 + 1, int('1000001')
    assert first == second and first is not second
    eng = SimEngine()
    seen = []
    eng.at(first, lambda: seen.append(eng.now))
    eng.at(second, lambda: seen.append(eng.now))
    eng.run()
    assert len(seen) == 2 and all(t is first for t in seen)
    assert eng.now is first


def test_events_can_spawn_events():
    eng = SimEngine()
    seen = []
    eng.at(1, lambda: (seen.append(eng.now), eng.at(eng.now + 4, lambda:
                                                    seen.append(eng.now))))
    eng.run()
    assert seen == [1, 5]


def test_an_event_in_the_past_is_refused():
    eng = SimEngine()
    eng.at(100, lambda: None)
    eng.run()
    assert eng.now == 100
    with pytest.raises(ValueError, match='before now'):
        eng.at(10, lambda: None)
    assert not eng._heap


def test_close_drops_the_events_left_unrun():
    eng = SimEngine()
    seen = []
    for t in (1, 5, 9):
        eng.at(t, lambda t=t: seen.append(t))
    assert eng.run(until_us=5) is True
    eng.close()
    assert not eng._heap and eng.now == 5
    assert eng.run() is False
    assert seen == [1, 5]


def test_realtime_close_drops_the_pollers_too():
    eng = RealtimeEngine(lambda: True)
    eng.at(50_000, lambda: None)
    eng.close()
    assert not eng._heap and not eng._poll()
    assert eng.run() is False


def test_run_until_pauses_and_resumes():
    eng = SimEngine()
    seen = []
    for t in (1, 5, 9):
        eng.at(t, lambda t=t: seen.append(t))
    eng.run(until_us=5)
    assert seen == [1, 5] and eng.now == 5
    eng.run()
    assert seen == [1, 5, 9]


def test_realtime_engine_paces_wall_clock():
    eng = RealtimeEngine(lambda: False)
    seen = []
    eng.at(30_000, lambda: seen.append(eng.wall_now_us()))
    t0 = time.monotonic()
    eng.run()
    elapsed = time.monotonic() - t0
    assert seen and seen[0] >= 30_000
    assert 0.02 <= elapsed < 1.0


def test_realtime_poller_keeps_loop_alive():
    state = {'poll_count': 0}

    def poller():
        state['poll_count'] += 1
        if state['poll_count'] == 3:
            eng.at(eng.now, lambda: None)
            return False
        return state['poll_count'] < 3

    eng = RealtimeEngine(poller)
    eng.run()
    assert state['poll_count'] >= 3


def test_launch_lane_serializes():
    lane = LaunchLane(delay_us=100_000)
    assert lane.admit(0) == (0, 100_000)
    assert lane.admit(0) == (100_000, 200_000)
    # an admission after the lane went idle starts immediately
    assert lane.admit(500_000) == (500_000, 600_000)


def test_zero_delay_lane_never_queues():
    lane = LaunchLane()
    assert lane.admit(7) == (7, 7)
    assert lane.admit(7) == (7, 7)


def test_drained_run_leaves_now_at_the_last_event():
    eng = SimEngine()
    eng.at(3, lambda: None)
    assert eng.run(until_us=10) is False
    assert eng.now == 3


def test_realtime_run_is_cut_while_only_a_poller_is_pending():
    t0 = time.monotonic()
    eng = RealtimeEngine(lambda: True)
    eng.at(50_000, lambda: None)     # past the cut: never run
    assert eng.run(until_us=20_000) is True
    assert eng.now == 20_000
    assert 0.02 <= time.monotonic() - t0 < 1.0
