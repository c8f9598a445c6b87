"""The scheduler in isolation: the shared ready list, per-key mutual
exclusion, fairness, withdrawal and admission control, tested with synthetic
items (no explanation machinery) so the concurrency invariants are visible.
"""

import sys
import threading
import time
from collections import defaultdict

import pytest

from repro.runtime.turn import blocking
from repro.service.scheduler import Scheduler
from repro.utils.errors import QueueFullError, ServiceClosedError

# A dispatcher thread that dies (say, claiming a key left listed after its
# state is gone) fails the test instead of printing a warning.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)

class _Recorder:
    """Collects executions and watches for per-key concurrency violations."""

    def __init__(self, delay=0.0, gate=None):
        self.delay = delay
        self.gate = gate
        self.lock = threading.Lock()
        self.executed = []          # (key, item, thread name) in finish order
        self.running = set()        # keys currently in flight
        self.violations = []        # keys seen running concurrently

    def __call__(self, item):
        key, payload = item
        with self.lock:
            if key in self.running:
                self.violations.append(key)
            self.running.add(key)
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.running.discard(key)
            self.executed.append((key, payload, threading.current_thread().name))


def _submit(scheduler, key, payload, **kwargs):
    scheduler.submit(key, (key, payload), **kwargs)


def _wait_in_flight(scheduler, count):
    """Wait until ``count`` items are claimed (running or waiting for the turn)."""
    deadline = time.monotonic() + 10
    while scheduler.stats().in_flight != count:
        assert time.monotonic() < deadline
        time.sleep(0.002)


class TestRouting:
    def test_all_items_of_one_key_execute_fifo(self):
        recorder = _Recorder()
        scheduler = Scheduler(recorder, dispatchers=4, max_queue=64)
        try:
            for index in range(20):
                _submit(scheduler, "k", index)
            assert scheduler.drain(timeout=30)
        finally:
            scheduler.close()
        assert [payload for _, payload, _ in recorder.executed] == list(range(20))
        assert not recorder.violations

    def test_per_key_mutual_exclusion_under_load(self):
        recorder = _Recorder(delay=0.002)
        scheduler = Scheduler(recorder, dispatchers=4, max_queue=256)
        try:
            for index in range(120):
                _submit(scheduler, f"key-{index % 6}", index)
            assert scheduler.drain(timeout=60)
        finally:
            scheduler.close()
        assert not recorder.violations
        assert len(recorder.executed) == 120
        # And each key's items finished in submission order.
        per_key = defaultdict(list)
        for key, payload, _ in recorder.executed:
            per_key[key].append(payload)
        for key, payloads in per_key.items():
            assert payloads == sorted(payloads), key

    def test_distinct_keys_spread_across_threads(self):
        recorder = _Recorder(delay=0.01)
        scheduler = Scheduler(recorder, dispatchers=4, max_queue=64)
        try:
            for index in range(16):
                _submit(scheduler, f"key-{index}", index)
            assert scheduler.drain(timeout=60)
        finally:
            scheduler.close()
        threads_used = {name for _, _, name in recorder.executed}
        assert len(threads_used) > 1  # the fleet actually fanned out


class TestFairness:
    def test_hot_key_cannot_starve_others(self):
        """With a deep backlog on one key, a later-submitted key still gets
        served long before the hot key's backlog is done (round-robin)."""
        recorder = _Recorder(delay=0.002)
        gate = threading.Event()

        def executor(item):
            # Hold the first claim until both key queues exist.
            gate.wait(timeout=30)
            recorder(item)

        scheduler = Scheduler(executor, dispatchers=1, max_queue=256)
        try:
            for index in range(50):
                _submit(scheduler, "hot", index)
            _submit(scheduler, "cold", 0)
            gate.set()
            assert scheduler.drain(timeout=60)
        finally:
            scheduler.close()
        finish_order = [key for key, _, _ in recorder.executed]
        cold_position = finish_order.index("cold")
        # Round-robin: the cold key is served within a couple of hot items,
        # not behind the whole backlog.
        assert cold_position <= 3, finish_order[:10]

    def test_backlogged_keys_share_executions_across_dispatchers(self):
        """Three backlogged keys on two dispatchers get equal shares.  With
        a ready list per dispatcher, k0 and k2 (one CRC-32 home) split one
        dispatcher while k1 had the other to itself: 15 of the first 30
        executions went to k1."""
        gate = threading.Event()
        order = []

        def executor(item):
            gate.wait(timeout=30)
            order.append(item[0])

        scheduler = Scheduler(executor, dispatchers=2, max_queue=64)
        try:
            for index in range(10):
                for key in ("k0", "k2", "k1"):
                    _submit(scheduler, key, index)
            _wait_in_flight(scheduler, 2)  # one runs, one waits for the turn
            time.sleep(0.05)  # let the claimer queue for the turn
            gate.set()
            assert scheduler.drain(timeout=30)
        finally:
            gate.set()
            scheduler.close()
        first = order[:15]
        shares = {key: first.count(key) for key in ("k0", "k1", "k2")}
        assert shares == {"k0": 5, "k1": 5, "k2": 5}, order


class TestExecutionTurn:
    """Dispatchers take one execution turn: at most one runs an item at a
    time, except while it waits inside ``blocking()``."""

    def test_four_dispatchers_never_execute_at_once(self):
        lock = threading.Lock()
        inside = [0]
        most = [0]

        def executor(item):
            with lock:
                inside[0] += 1
                most[0] = max(most[0], inside[0])
            time.sleep(0.002)  # drops the interpreter lock, keeps the turn
            with lock:
                inside[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        scheduler = Scheduler(executor, dispatchers=4, max_queue=256)
        try:
            for index in range(48):
                _submit(scheduler, f"key-{index % 8}", index)
            assert scheduler.drain(timeout=60)
            stats = scheduler.stats()
        finally:
            scheduler.close()
            sys.setswitchinterval(interval)
        assert most[0] == 1
        assert sum(d.executed for d in stats.dispatcher_stats) == 48
        assert sum(d.turn_wait_s for d in stats.dispatcher_stats) > 0.0

    def test_distinct_keys_meet_inside_blocking(self):
        """Two items of distinct keys each wait for the other inside
        ``blocking()``: both reach the barrier, so neither holds the turn
        while it waits (a held turn would break the barrier on timeout)."""
        barrier = threading.Barrier(2, timeout=10)
        outcomes = []

        def executor(item):
            key, _ = item
            with blocking():
                try:
                    barrier.wait()
                    outcomes.append((key, "met"))
                except threading.BrokenBarrierError:
                    outcomes.append((key, "broken"))

        scheduler = Scheduler(executor, dispatchers=2, max_queue=16)
        try:
            _submit(scheduler, "a", 0)
            _submit(scheduler, "b", 0)
            assert scheduler.drain(timeout=30)
        finally:
            scheduler.close()
        assert sorted(outcomes) == [("a", "met"), ("b", "met")]

    def test_waiting_keys_alternate(self):
        """The turn goes to waiting dispatchers in the order they asked, so
        two backlogged keys alternate as on one dispatcher, instead of the
        releasing dispatcher taking the turn straight back."""
        gate = threading.Event()
        order = []

        def executor(item):
            gate.wait(timeout=30)
            order.append(item[0])

        scheduler = Scheduler(executor, dispatchers=2, max_queue=64)
        try:
            for index in range(10):
                _submit(scheduler, "a", index)
                _submit(scheduler, "b", index)
            _wait_in_flight(scheduler, 2)  # one runs, one waits for the turn
            time.sleep(0.05)  # let the claimer queue for the turn
            gate.set()
            assert scheduler.drain(timeout=30)
        finally:
            gate.set()
            scheduler.close()
        assert all(a != b for a, b in zip(order, order[1:])), order


class TestAdmissionControl:
    def test_non_blocking_submit_raises_when_full(self):
        gate = threading.Event()
        recorder = _Recorder(gate=gate)
        scheduler = Scheduler(recorder, dispatchers=1, max_queue=2)
        try:
            _submit(scheduler, "k", 0)  # claimed, blocked on the gate
            _wait_in_flight(scheduler, 1)
            _submit(scheduler, "k", 1)
            _submit(scheduler, "k", 2)
            with pytest.raises(QueueFullError):
                _submit(scheduler, "k", 3, block=False)
            with pytest.raises(QueueFullError):
                _submit(scheduler, "k", 4, timeout=0.05)
        finally:
            gate.set()
            scheduler.close()
        assert len(recorder.executed) == 3

    def test_blocking_submit_waits_for_space(self):
        gate = threading.Event()
        recorder = _Recorder(gate=gate)
        scheduler = Scheduler(recorder, dispatchers=1, max_queue=1)
        try:
            _submit(scheduler, "k", 0)
            releaser = threading.Timer(0.1, gate.set)
            releaser.start()
            _submit(scheduler, "k", 1, timeout=10.0)  # blocks, then succeeds
            assert scheduler.drain(timeout=30)
        finally:
            gate.set()
            scheduler.close()
        assert len(recorder.executed) == 2

    def test_queue_depth_reported(self):
        gate = threading.Event()
        recorder = _Recorder(gate=gate)
        scheduler = Scheduler(recorder, dispatchers=1, max_queue=8)
        try:
            for index in range(4):
                _submit(scheduler, "k", index)
            _wait_in_flight(scheduler, 1)
            stats = scheduler.stats()
            assert stats.queue_depth == 3
            assert stats.keys == 1
            assert stats.dispatchers == 1
        finally:
            gate.set()
            scheduler.close()


class TestAbsorption:
    """``claim_extra``: an executor holding a key may pull newly queued
    same-key work into its own run instead of parking it behind the claim."""

    def test_claim_extra_absorbs_queued_same_key_work(self):
        claimed = threading.Event()
        release = threading.Event()
        holder = {}
        executed = []
        absorbed = []

        def executor(item):
            executed.append(item)
            claimed.set()
            release.wait(timeout=30)
            scheduler = holder["scheduler"]
            extras = scheduler.claim_extra("hot", 10)
            absorbed.extend(extras)
            for _ in extras:
                scheduler.extra_done("hot")

        scheduler = holder["scheduler"] = Scheduler(
            executor, dispatchers=1, max_queue=16
        )
        try:
            scheduler.submit("hot", "primary")
            assert claimed.wait(timeout=30)
            # Queued behind an inflight key: normally these wait for the
            # claim to finish; the executor absorbs them instead.
            scheduler.submit("hot", "x1")
            scheduler.submit("hot", "x2")
            release.set()
            assert scheduler.drain(timeout=30)
            stats = scheduler.stats()
        finally:
            scheduler.close()
        # Absorbed items left the queue in FIFO order and never reached the
        # executor on their own; the drain still accounted for all three.
        assert executed == ["primary"]
        assert absorbed == ["x1", "x2"]
        assert stats.absorbed == 2
        assert stats.queue_depth == 0

    def test_claim_extra_respects_limit(self):
        claimed = threading.Event()
        release = threading.Event()
        holder = {}
        absorbed = []

        def executor(item):
            claimed.set()
            release.wait(timeout=30)
            scheduler = holder["scheduler"]
            extras = scheduler.claim_extra("hot", 1)
            absorbed.extend(extras)
            for _ in extras:
                scheduler.extra_done("hot")

        scheduler = holder["scheduler"] = Scheduler(
            executor, dispatchers=1, max_queue=16
        )
        try:
            scheduler.submit("hot", "primary")
            assert claimed.wait(timeout=30)
            scheduler.submit("hot", "x1")
            scheduler.submit("hot", "x2")
            release.set()
            assert scheduler.drain(timeout=30)
        finally:
            scheduler.close()
        # Only one absorbed; the other executed through a normal claim.
        assert absorbed == ["x1"]

    def test_claim_extra_requires_an_inflight_key(self):
        scheduler = Scheduler(lambda item: None, dispatchers=1)
        try:
            assert scheduler.claim_extra("idle", 4) == []
            assert scheduler.claim_extra("idle", 0) == []
        finally:
            scheduler.close()
        assert scheduler.stats().absorbed == 0


class TestWithdraw:
    """``withdraw``: the cancellation fast path for still-queued items."""

    def test_withdrawn_item_never_executes_and_frees_its_slot(self):
        gate = threading.Event()
        recorder = _Recorder(gate=gate)
        scheduler = Scheduler(recorder, dispatchers=1, max_queue=1)
        outcome = []

        def blocked_submit():
            try:
                _submit(scheduler, "k", 2, timeout=30.0)  # queue full: blocks
                outcome.append("queued")
            except Exception as error:  # pragma: no cover - reported below
                outcome.append(error)

        try:
            _submit(scheduler, "k", 0)
            _wait_in_flight(scheduler, 1)  # claimed, held at the gate
            _submit(scheduler, "k", 1)  # takes the one queue slot
            thread = threading.Thread(target=blocked_submit)
            thread.start()
            time.sleep(0.05)
            assert thread.is_alive()  # waiting for space
            assert scheduler.withdraw("k", ("k", 1))
            thread.join(timeout=5)  # woken by the freed slot, not its timeout
            assert outcome == ["queued"]
            gate.set()
            assert scheduler.drain(timeout=30)
        finally:
            gate.set()
            scheduler.close()
        assert [payload for _, payload, _ in recorder.executed] == [0, 2]

    def test_withdrawing_a_keys_last_item_delists_the_key(self):
        gate = threading.Event()
        recorder = _Recorder(gate=gate)
        scheduler = Scheduler(recorder, dispatchers=1, max_queue=8)
        try:
            _submit(scheduler, "busy", 0)
            _wait_in_flight(scheduler, 1)
            _submit(scheduler, "idle", 1)  # ready, not claimed
            assert scheduler.stats().keys == 2
            assert scheduler.withdraw("idle", ("idle", 1))
            stats = scheduler.stats()
            assert (stats.keys, stats.queue_depth) == (1, 0)
            # A key left on the ready list would be claimed with no item.
            gate.set()
            assert scheduler.drain(timeout=30)
        finally:
            gate.set()
            scheduler.close()
        assert [key for key, _, _ in recorder.executed] == ["busy"]

    def test_claimed_or_unknown_items_are_not_withdrawn(self):
        gate = threading.Event()
        recorder = _Recorder(gate=gate)
        scheduler = Scheduler(recorder, dispatchers=2, max_queue=8)
        try:
            _submit(scheduler, "k", 0)
            _wait_in_flight(scheduler, 1)
            assert not scheduler.withdraw("k", ("k", 0))  # claimed
            assert not scheduler.withdraw("k", ("k", 9))  # never queued
            assert not scheduler.withdraw("other", ("other", 0))  # no such key
            assert scheduler.stats().in_flight == 1
            gate.set()
            assert scheduler.drain(timeout=30)
        finally:
            gate.set()
            scheduler.close()
        assert [payload for _, payload, _ in recorder.executed] == [0]


class TestLifecycle:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Scheduler(lambda item: None, dispatchers=0)
        with pytest.raises(ValueError):
            Scheduler(lambda item: None, max_queue=0)

    def test_submit_after_close_raises(self):
        scheduler = Scheduler(lambda item: None)
        scheduler.close()
        with pytest.raises(ServiceClosedError):
            _submit(scheduler, "k", 0)

    def test_close_drains_backlog_by_default(self):
        recorder = _Recorder(delay=0.002)
        scheduler = Scheduler(recorder, dispatchers=2, max_queue=64)
        for index in range(10):
            _submit(scheduler, f"k{index % 3}", index)
        cancelled = scheduler.close()
        assert cancelled == []
        assert len(recorder.executed) == 10

    def test_close_with_cancel_returns_backlog(self):
        gate = threading.Event()
        recorder = _Recorder(gate=gate)
        scheduler = Scheduler(recorder, dispatchers=2, max_queue=64)
        _submit(scheduler, "k", 0)
        _wait_in_flight(scheduler, 1)
        _submit(scheduler, "a", 1)
        _wait_in_flight(scheduler, 2)  # both dispatchers hold a claim
        for key, index in (("k", 2), ("a", 3), ("b", 4), ("k", 5), ("b", 6)):
            _submit(scheduler, key, index)
        # Open the gate only once close has withdrawn the backlog.
        releaser = threading.Timer(0.1, gate.set)
        releaser.start()
        cancelled = scheduler.close(cancel=True)
        releaser.join(timeout=10)
        by_key = defaultdict(list)
        for key, payload in cancelled:
            by_key[key].append(payload)
        assert by_key == {"k": [2, 5], "a": [3], "b": [4, 6]}
        assert sorted(payload for _, payload, _ in recorder.executed) == [0, 1]
        stats = scheduler.stats()
        assert (stats.queue_depth, stats.in_flight, stats.keys) == (0, 0, 0)

    def test_close_wakes_blocked_submitters(self):
        gate = threading.Event()
        scheduler = Scheduler(_Recorder(gate=gate), dispatchers=1, max_queue=1)
        _submit(scheduler, "k", 0)
        outcome = []

        def blocked_submit():
            try:
                _submit(scheduler, "k", 1)  # queue full: blocks
            except ServiceClosedError:
                outcome.append("closed")

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        time.sleep(0.05)
        gate.set()
        scheduler.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        # Either the submit squeezed in before close (then it executed) or
        # it was woken with ServiceClosedError; both are clean outcomes.
        assert outcome in ([], ["closed"])

    def test_close_is_idempotent(self):
        scheduler = Scheduler(lambda item: None)
        scheduler.close()
        assert scheduler.close() == []
        assert scheduler.close(cancel=True) == []

    def test_drain_times_out(self):
        gate = threading.Event()
        scheduler = Scheduler(_Recorder(gate=gate), dispatchers=1)
        try:
            _submit(scheduler, "k", 0)
            assert scheduler.drain(timeout=0.05) is False
            gate.set()
            assert scheduler.drain(timeout=30)
        finally:
            gate.set()
            scheduler.close()
