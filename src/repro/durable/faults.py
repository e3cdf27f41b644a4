"""Deterministic fault injection for the distributed tier.

:class:`FaultyTransport` wraps any real transport and perturbs its
traffic on a *send-count schedule*: kill worker ``w`` at its ``n``-th
outbound frame, drop specific frames, or delay replies.  Because the
async dispatcher ships frames from one selector thread in per-worker
FIFO order, send ordinals are deterministic for a given program -- the
same test run injects the same fault at the same point every time, on
every transport.

A "kill" models a crash/partition, not a clean shutdown: the
triggering frame is *lost* (as if the worker died mid-receive), every
later send raises :class:`TransportError`, pending replies from the
worker are swallowed, and ``alive()`` reports it dead.  For process
transports the real process may keep running unreachable -- exactly a
network partition -- and is cleaned up by the inner transport's
``stop``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.distributed.transport import (
    BaseTransport,
    TransportError,
    make_transport,
)

__all__ = ["FaultyTransport"]


class FaultyTransport(BaseTransport):
    """Wrap a transport with a deterministic drop/kill schedule.

    Parameters
    ----------
    inner:
        Transport name or instance (not yet started) to wrap.
    kill_after:
        ``{worker_id: n}`` -- the worker dies on its ``n``-th outbound
        frame (1-based); that frame is lost.
    drop_sends:
        ``{worker_id: ordinals}`` -- those outbound frames (1-based
        ordinals) are silently lost without killing the worker.
    """

    def __init__(
        self,
        inner,
        *,
        kill_after: Optional[Dict[int, int]] = None,
        drop_sends: Optional[Dict[int, Iterable[int]]] = None,
    ):
        # No super().__init__(): the wrapper shares the inner
        # transport's wire counters rather than attaching a second set.
        self._inner = make_transport(inner)
        self.stats = self._inner.stats
        self.name = f"faulty({self._inner.name})"
        self._kill_after = dict(kill_after or {})
        self._drop_sends = {
            worker: frozenset(ordinals)
            for worker, ordinals in (drop_sends or {}).items()
        }
        self._sends: Dict[int, int] = {}
        self._killed: set = set()

    @property
    def zero_copy(self) -> bool:
        return self._inner.zero_copy

    @property
    def killed(self) -> frozenset:
        """Workers the schedule has killed so far."""
        return frozenset(self._killed)

    def start(self, num_workers: int) -> None:
        self._inner.start(num_workers)

    def send(
        self, worker_id: int, frame: bytes, *, reply_expected: bool = True
    ) -> None:
        if worker_id in self._killed:
            raise TransportError(f"worker {worker_id} is dead (injected)")
        ordinal = self._sends.get(worker_id, 0) + 1
        self._sends[worker_id] = ordinal
        kill_at = self._kill_after.get(worker_id)
        if kill_at is not None and ordinal >= kill_at:
            # Crash mid-receive: the frame is lost with the worker.
            self._killed.add(worker_id)
            return
        if ordinal in self._drop_sends.get(worker_id, ()):
            return
        self._inner.send(worker_id, frame, reply_expected=reply_expected)

    def poll(self, timeout: Optional[float]) -> List[Tuple[int, bytes]]:
        return [
            (worker_id, reply)
            for worker_id, reply in self._inner.poll(timeout)
            if worker_id not in self._killed
        ]

    def alive(self, worker_id: int) -> bool:
        return (
            worker_id not in self._killed
            and self._inner.alive(worker_id)
        )

    @property
    def num_workers(self) -> int:
        return self._inner.num_workers

    def stop(self) -> None:
        self._inner.stop()
