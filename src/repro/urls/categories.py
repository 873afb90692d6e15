"""URL categories, mirroring the McAfee categorization the paper queries."""

from __future__ import annotations

import enum
from typing import Dict, Optional


class Category(enum.Enum):
    """Content categories used for test-list generation and censor policies."""

    NEWS = "News"
    SOCIAL = "Social Networking"
    SHOPPING = "Online Shopping"
    CLASSIFIEDS = "Classifieds"
    ADULT = "Adult"
    GAMBLING = "Gambling"
    AD_VENDOR = "Ad Vendor"
    CIRCUMVENTION = "Circumvention Tools"
    POLITICS = "Politics/Opinion"
    RELIGION = "Religion"
    STREAMING = "Media Streaming"
    FILE_SHARING = "File Sharing"

    @classmethod
    def all(cls) -> tuple["Category", ...]:
        """All categories in declaration order."""
        return tuple(cls)


class CategoryDatabase:
    """Maps domains to categories (the simulator's McAfee analog).

    Unlike the real service, coverage is perfect for generated test lists;
    :meth:`categorize` returns None for unknown domains so calling code
    still handles the miss path.
    """

    def __init__(self) -> None:
        self._by_domain: Dict[str, Category] = {}

    def register(self, domain: str, category: Category) -> None:
        """Record the category of a domain."""
        self._by_domain[domain] = category

    def categorize(self, domain: str) -> Optional[Category]:
        """The category of a domain, or None when unknown."""
        return self._by_domain.get(domain)

    def __len__(self) -> int:
        return len(self._by_domain)


__all__ = ["Category", "CategoryDatabase"]
