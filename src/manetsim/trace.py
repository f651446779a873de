"""Run trace: one line per event, a stable golden-file target."""

import hashlib

# Lines per block of blocks(): digest() and write() never hold more than one
# block's text at a time, where the whole text would double the trace's memory.
DIGEST_BLOCK = 4096


class Trace:
    """Collects `time node event packet detail...` lines.

    Field order is fixed; '-' stands in for a missing packet id. The text is
    byte-stable for a given scenario and seed, so its digest doubles as a
    determinism check.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.lines: list[str] = []
        # Most lines share the previous line's instant, so its rendering is
        # kept. Equal floats render alike except -0.0 and 0.0, and the clock
        # never yields -0.0: it starts at 0.0 and only adds durations >= 0.
        self._t: float | None = None
        self._stamp = ""

    def emit(self, t: float, node, event: str, pkt="-", detail: str = "") -> None:
        if not self.enabled:
            return
        if t != self._t:
            self._t = t
            self._stamp = f"{t:.9f}"
        if detail:
            self.lines.append(f"{self._stamp} {node} {event} {pkt} {detail}")
        else:
            self.lines.append(f"{self._stamp} {node} {event} {pkt}")

    def text(self) -> str:
        return b"".join(self.blocks()).decode()

    def blocks(self):
        """Yield the trace's UTF-8 bytes, DIGEST_BLOCK newline-ended lines at a time."""
        lines = self.lines
        for i in range(0, len(lines), DIGEST_BLOCK):
            yield ("\n".join(lines[i : i + DIGEST_BLOCK]) + "\n").encode()

    def digest(self) -> str:
        """sha256 of exactly the bytes text() returns, hashed block by block."""
        h = hashlib.sha256()
        for block in self.blocks():
            h.update(block)
        return h.hexdigest()

    def write(self, path) -> None:
        """Write exactly the bytes text() returns to `path`, block by block."""
        with open(path, "wb") as fh:
            fh.writelines(self.blocks())

    def count(self, event: str) -> int:
        marker = f" {event} "
        return sum(1 for line in self.lines if marker in line)
