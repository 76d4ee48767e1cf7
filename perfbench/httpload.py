"""A minimal HTTP/1.1 keep-alive client and an open-loop scheduler.

The benchmark owns its load generator, so a change to ``repro.serve``
cannot change how load is generated or timed.  One asyncio process
drives at most two connections, matching the two cores this benchmark
is sized for.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Callable, List, Optional, Sequence, Tuple


class HttpError(Exception):
    """The server closed the connection or sent an unreadable reply."""


class Connection:
    """One persistent connection; requests on it are sequential."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def get(self, target: str) -> Tuple[int, bytes]:
        """``GET target``; returns (status, body)."""
        if self._writer is None:
            await self.open()
        self._writer.write(
            f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode()
        )
        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            await self.close()
            raise HttpError(f"connection lost: {exc}") from exc
        lines = head.decode("latin-1").split("\r\n")
        try:
            status = int(lines[0].split(" ", 2)[1])
        except (IndexError, ValueError) as exc:
            raise HttpError(f"bad status line {lines[0]!r}") from exc
        length = 0
        closing = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                closing = value.strip().lower() == "close"
        body = await self._reader.readexactly(length) if length else b""
        if closing:
            await self.close()
        return status, body

    async def close(self) -> None:
        if self._writer is not None:
            writer, self._writer, self._reader = self._writer, None, None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def poisson_schedule(rate: float, seconds: float,
                     rng: random.Random) -> List[float]:
    """Poisson arrivals at ``rate``/s over ``seconds``, count held fixed.

    Given its count, a Poisson process's arrival times are independent
    uniform points, so drawing exactly ``rate * seconds`` of them keeps
    the arrival pattern while every run has the same number of samples.
    """
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


class Outcome:
    """One request's timing, measured from its due time."""

    __slots__ = ("tag", "due", "sent", "done", "status", "body", "error")

    def __init__(self, tag, due: float) -> None:
        self.tag = tag
        self.due = due
        self.sent = due
        self.done = due
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Done minus due: includes any wait a stall imposed."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


#: The event loop's timers wake up to a millisecond late (epoll rounds
#: its timeout up to whole milliseconds), so the scheduler wakes this
#: much early and sleeps the rest without yielding.
TIMER_SLACK_S = 0.0015


async def sleep_until(due: float, clock=time.perf_counter) -> None:
    """Wait until ``clock() >= due`` with sub-millisecond lateness."""
    delay = due - clock() - TIMER_SLACK_S
    if delay > 0:
        await asyncio.sleep(delay)
    rest = due - clock()
    if rest > 0:
        time.sleep(rest)


async def open_loop(conn: Connection, start: float,
                    arrivals: Sequence[float],
                    target_of: Callable[[int], Tuple[object, str]],
                    clock=time.perf_counter) -> List[Outcome]:
    """Send request ``i`` at ``start + arrivals[i]`` whatever the replies.

    Requests share ``conn``, so one due while its predecessor is still
    in flight waits for it; that wait is part of its latency.
    """
    out = []
    for i, offset in enumerate(arrivals):
        tag, target = target_of(i)
        item = Outcome(tag, start + offset)
        await sleep_until(item.due, clock)
        item.sent = clock()
        try:
            item.status, item.body = await conn.get(target)
        except (HttpError, OSError) as exc:
            item.error = str(exc)
        item.done = clock()
        out.append(item)
    return out


async def closed_loop(conn: Connection, until: float,
                      target_of: Callable[[int], Tuple[object, str]],
                      clock=time.perf_counter) -> List[Outcome]:
    """Send the next request as soon as the previous reply arrives."""
    out = []
    i = 0
    while clock() < until:
        tag, target = target_of(i)
        item = Outcome(tag, clock())
        try:
            item.status, item.body = await conn.get(target)
        except (HttpError, OSError) as exc:
            item.error = str(exc)
        item.done = clock()
        out.append(item)
        i += 1
    return out
