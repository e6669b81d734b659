"""A shard worker target that exits before its ready handshake.

Spawned worker processes import their target by module name, so the target
lives in an importable module rather than inside a test.
"""

from __future__ import annotations

import os


def exit_at_once(config: object, conn: object) -> None:
    """Die with exit code 3 before saying anything on the pipe."""
    os._exit(3)
