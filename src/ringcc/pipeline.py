"""Threaded engine: the lockstep ring with one worker thread per processor.

`ThreadedRing` replaces only the scheduling of a tick's `process_bundle`
calls. It calls every processor every tick, idle or not, so it is the dense
reference for the lockstep engine's idle skip: the transcripts are
byte-identical. It refuses `validate=True`: the auditor's per-key copy counts
are updated inside `process_bundle`, where concurrent workers would update
them in an order that changes from run to run.
"""

from __future__ import annotations

import queue
import threading

from .ring import Ring

_STOP = object()


def _worker(proc, inbox, outbox):
    for b in iter(inbox.get, _STOP):
        try:
            outbox.put(proc.process_bundle(b))
        except Exception as exc:  # re-raised on the caller's thread
            outbox.put(exc)


class ThreadedRing(Ring):
    """Workers start with the first tick and stop when `run_stream` returns
    or raises; a caller driving `tick` directly calls `close`."""

    __slots__ = ("_queues", "_threads")

    def __init__(self, config):
        if config.validate:
            raise ValueError("validate=True is not supported by the threaded engine")
        super().__init__(config)
        self._queues = None  # (inbox, outbox) of each processor's worker

    def _start(self):
        self._queues = [(queue.SimpleQueue(), queue.SimpleQueue()) for _ in self.processors]
        self._threads = [threading.Thread(target=_worker, args=(proc, *q), daemon=True)
                         for proc, q in zip(self.processors, self._queues)]
        for th in self._threads:
            th.start()
        return self._queues

    def close(self):
        """Stop the worker threads; a later tick starts new ones."""
        if self._queues is not None:
            for inbox, _ in self._queues:
                inbox.put(_STOP)
            for th in self._threads:
                th.join()
            self._queues = None

    def run_stream(self, items, drain=True):
        try:
            return super().run_stream(items, drain)
        finally:
            self.close()

    def _advance(self, head_in):
        queues = self._queues or self._start()
        links = self.links
        ins = [head_in] + links[1:]
        for (inbox, _), b in zip(queues, ins):
            inbox.put(b)
        outs = [outbox.get() for _, outbox in queues]
        for out in outs:
            if isinstance(out, Exception):
                raise out
        links[1:] = outs[:-1]
        self.junction_return = outs[-1]
        return list(zip(range(len(outs)), ins, outs))


def run_pipelined(config, items):
    """Run the item sequence on the threaded engine without a final drain;
    returns the transcript."""
    return ThreadedRing(config).run_stream(items, drain=False)
