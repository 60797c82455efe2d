"""Structured errors for the serving tier.

Every failure a client can observe is a :class:`ServingError` with a
stable machine-readable ``code``, an HTTP status for the ASGI
front-end, and optional ``details`` (e.g. the current store version on
a ``stale-version`` rejection).  Anything else escaping a handler is a
bug and surfaces as ``internal`` / 500.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["ServingError"]

#: code -> HTTP status used when the constructor is not given one.
_DEFAULT_STATUS = {
    "bad-request": 400,
    "unknown-store": 404,
    "unknown-circuit": 404,
    "stale-version": 409,
    "corrupt-store": 422,
    "overloaded": 429,
    "quota-exceeded": 429,
    "internal": 500,
    "deadline-exceeded": 504,
}


class ServingError(Exception):
    """A structured, client-visible serving failure."""

    def __init__(
        self,
        code: str,
        message: str,
        *,
        status: Optional[int] = None,
        details: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = (
            status if status is not None else _DEFAULT_STATUS.get(code, 400)
        )
        self.details: Dict[str, object] = details or {}

    @property
    def retry_after_seconds(self) -> Optional[float]:
        """Seconds the client should back off, when the error carries
        one (``quota-exceeded`` does; the ASGI front-end renders it as
        a ``Retry-After`` header)."""
        value = self.details.get("retry_after_seconds")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return None

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "code": self.code,
            "message": self.message,
        }
        if self.details:
            payload["details"] = self.details
        return {"error": payload}

    @classmethod
    def from_json(cls, status: int, payload: Any) -> "ServingError":
        """Inverse of :meth:`to_json`: the error an HTTP ``status`` and
        its decoded response body carry."""
        error = payload.get("error") if isinstance(payload, dict) else None
        if not isinstance(error, dict):
            error = {}
        return cls(
            error.get("code", "internal"),
            error.get("message", f"HTTP {status}"),
            status=status,
            details=error.get("details"),
        )

    def __repr__(self) -> str:
        return (
            f"ServingError({self.code!r}, {self.message!r}, "
            f"status={self.status})"
        )
