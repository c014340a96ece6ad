"""An asyncio event loop on virtual time, for in-process runtime tests.

The runtime reads every instant that shapes a period from the running
loop's ``time()``.  This loop's clock moves only when the loop would
otherwise sleep: it polls its real file descriptors without blocking,
and when none is ready it jumps ahead by exactly the timeout it was
about to wait for.  A run is then a function of the plan and the
seeds, however fast the host, and a period costs no wall-clock time.
"""

import asyncio
import selectors


class _JumpingSelector(selectors.DefaultSelector):
    now = 0.0

    def select(self, timeout=None):
        ready = super().select(0)
        if not ready and timeout != 0:
            if timeout is None:
                raise RuntimeError("virtual-time loop is idle with no timer to jump to")
            self.now += timeout
        return ready


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    def __init__(self):
        self._clock = _JumpingSelector()
        super().__init__(self._clock)

    def time(self):
        return self._clock.now


def run_virtual(main):
    """``asyncio.run(main)`` on a fresh :class:`VirtualTimeLoop`."""
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        left = asyncio.all_tasks(loop)
        for task in left:
            task.cancel()
        if left:
            loop.run_until_complete(asyncio.gather(*left, return_exceptions=True))
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
