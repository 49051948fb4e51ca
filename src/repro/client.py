"""Retrying HTTP client for the verification service.

The servers answer load shedding with structured 503/429 records that
carry a ``Retry-After`` hint (jittered server-side so a fleet of
clients does not stampede back in lockstep).  :class:`VerifyClient`
closes the loop on the client side: it retries those statuses — and
transient connection failures — with capped exponential backoff plus
jitter, preferring the server's ``Retry-After`` hint when one is
present.

The client is stdlib-only (``urllib``) and deliberately boring: one
request at a time, explicit timeouts, and a deterministic
:class:`RetryPolicy` whose jitter source is seedable so tests can pin
the schedule.  The ``socket.slow`` fault-injection point from
:mod:`repro.faults` fires before every send, which lets the chaos suite
simulate a slow network without monkeypatching sockets.

    >>> client = VerifyClient("http://localhost:8642")
    >>> client.verify({"left": "SELECT * FROM r t",
    ...                "right": "SELECT DISTINCT * FROM r t"})["verdict"]
    'NOT_EQUIVALENT'
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Union

from repro.faults import fault_hit

__all__ = ["ClientError", "RetryPolicy", "VerifyClient"]

#: HTTP statuses that signal transient overload worth retrying.
RETRYABLE_STATUSES = frozenset({429, 503})


class ClientError(RuntimeError):
    """Raised when a request fails after exhausting every retry.

    ``last_status`` is the final HTTP status (``None`` when the failure
    was a connection error), ``attempts`` the number of tries made.
    """

    def __init__(self, message: str, *, last_status: Optional[int] = None,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.last_status = last_status
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter.

    Delay for attempt *n* (0-based) is ``min(max_delay, base_delay *
    2**n)`` scaled by a uniform jitter factor in ``[1 - jitter, 1]``.
    When the server sends a ``Retry-After`` hint, the hint wins (capped
    at ``max_delay``) — the server already jittered it.
    """

    max_attempts: int = 4
    base_delay: float = 0.25
    max_delay: float = 10.0
    jitter: float = 0.5
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay_for(self, attempt: int, rng: random.Random,
                  retry_after: Optional[float] = None) -> float:
        if retry_after is not None and retry_after >= 0:
            return min(float(retry_after), self.max_delay)
        backoff = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        scale = 1.0 - self.jitter * rng.random()
        return backoff * scale


class VerifyClient:
    """Talks to a running verification front end, retrying overload.

    ``sleep`` is injectable so tests can assert the backoff schedule
    without wall-clock waits.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        self._rng = random.Random(self.policy.seed)
        self.requests = 0
        self.retries = 0

    # -- public API ---------------------------------------------------

    def verify(self, obj: Mapping[str, Any]) -> Dict[str, Any]:
        """POST one pair to ``/verify``; returns the structured record."""
        body = json.dumps(obj).encode("utf-8")
        return json.loads(self._request("POST", "/verify", body))

    def verify_batch(
        self, items: Union[str, bytes, Iterable[Mapping[str, Any]]]
    ) -> List[Dict[str, Any]]:
        """POST a JSONL batch to ``/verify/batch``; returns the records.

        ``items`` may be pre-encoded JSONL (str/bytes) or an iterable of
        dicts which is serialised one object per line.
        """
        if isinstance(items, bytes):
            body = items
        elif isinstance(items, str):
            body = items.encode("utf-8")
        else:
            body = ("\n".join(json.dumps(obj) for obj in items) + "\n").encode(
                "utf-8"
            )
        raw = self._request("POST", "/verify/batch", body)
        return [json.loads(line) for line in raw.splitlines() if line.strip()]

    def corpus(self, dataset: str = "bugs") -> Dict[str, Any]:
        """Replay a built-in corpus; returns the summary record."""
        return json.loads(
            self._request("POST", f"/corpus?dataset={dataset}", b"")
        )

    def health(self) -> Dict[str, Any]:
        return json.loads(self._request("GET", "/healthz", None))

    def stats(self) -> Dict[str, Any]:
        return json.loads(self._request("GET", "/stats", None))

    # -- transport ----------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[bytes]) -> str:
        url = self.base_url + path
        last_status: Optional[int] = None
        last_error = "request failed"
        attempts = 0
        for attempt in range(self.policy.max_attempts):
            attempts = attempt + 1
            rule = fault_hit("socket.slow")
            if rule is not None and rule.delay > 0:
                time.sleep(rule.delay)
            retry_after: Optional[float] = None
            try:
                request = urllib.request.Request(
                    url, data=body, method=method,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    self.requests += 1
                    return response.read().decode("utf-8")
            except urllib.error.HTTPError as exc:
                self.requests += 1
                last_status = exc.code
                payload = exc.read().decode("utf-8", "replace")
                if exc.code not in RETRYABLE_STATUSES:
                    raise ClientError(
                        f"{method} {path} failed with HTTP {exc.code}: "
                        f"{payload[:200]}",
                        last_status=exc.code, attempts=attempts,
                    ) from exc
                last_error = f"HTTP {exc.code}"
                retry_after = _retry_after_hint(exc, payload)
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                last_status = None
                last_error = str(exc)
            if attempt + 1 >= self.policy.max_attempts:
                break
            self.retries += 1
            self._sleep(self.policy.delay_for(attempt, self._rng, retry_after))
        raise ClientError(
            f"{method} {path} failed after {attempts} attempt(s): "
            f"{last_error}",
            last_status=last_status, attempts=attempts,
        )


def _retry_after_hint(exc: urllib.error.HTTPError,
                      payload: str) -> Optional[float]:
    """Extract the server's retry hint: header first, then the body."""
    header = exc.headers.get("Retry-After") if exc.headers else None
    if header:
        try:
            return float(header)
        except ValueError:
            pass
    try:
        record = json.loads(payload)
        hint = record.get("error", {}).get("retry_after_seconds")
        if hint is not None:
            return float(hint)
    except (ValueError, AttributeError):
        pass
    return None
