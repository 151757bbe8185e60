"""Finding records.

A finding renders as ``path:line:RULE: message`` (path repo-relative,
POSIX separators) so editors and CI logs link straight to the site.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # repo-relative, POSIX separators
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.rule}: {self.message}"
