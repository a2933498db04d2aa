"""OPTIQUE platform facade: deployment, verification, query lifecycle."""

from .platform import OptiquePlatform
from .session import AsyncSession, PreparedQuery, QueryHandle, Session

__all__ = [
    "OptiquePlatform",
    "PreparedQuery",
    "QueryHandle",
    "Session",
    "AsyncSession",
]
