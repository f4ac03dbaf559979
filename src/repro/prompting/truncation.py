"""Context-window truncation.

When a prompt exceeds the model's context window, the paper keeps
"the portions closer to the next tactic" — i.e. the *end* of the
prompt (the current file's recent declarations and the active goal)
survives; the distant beginning is dropped.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.corpus.tokenizer import count_tokens
from repro.kernel.cache import BoundedCache

__all__ = ["truncate_to_window", "counted_lines", "keep_end"]

_MARKER = "(* ...context truncated... *)\n"

# Token count of each line text counted so far, shared by every builder
# in the process: the prompts of one project repeat the same context
# lines.  ``count_tokens`` is pure, so the memo is exact; it evicts its
# oldest line when full, and a racing thread can only make it count a
# line again.
_LINE_TOKENS = BoundedCache("line_tokens", 16_384)


def truncate_to_window(prompt: str, window_tokens: int) -> str:
    """Keep the trailing ``window_tokens`` tokens of ``prompt``.

    Truncation happens at line granularity so declarations are not cut
    mid-identifier; the kept suffix is prefixed with a marker, as a
    real serving stack would signal an elided prefix.
    """
    if count_tokens(prompt) <= window_tokens:
        return prompt
    return keep_end(*counted_lines(prompt), window_tokens)


def counted_lines(text: str) -> Tuple[List[str], List[int]]:
    """``text``'s lines (ends kept) and the token count of each.

    No token spans a line break, so the counts sum to
    ``count_tokens(text)``.
    """
    lines = text.splitlines(keepends=True)
    memo = _LINE_TOKENS
    counts = []
    for line in lines:
        count = memo.get(line)
        if count is None:
            count = count_tokens(line)
            memo.put(line, count)
        counts.append(count)
    return lines, counts


def keep_end(
    lines: List[str], line_tokens: Sequence[int], window_tokens: int
) -> str:
    """The marked trailing ``lines`` that fit ``window_tokens``, given
    each line's token count (the last line is kept even alone over
    budget)."""
    start = len(lines)
    total = 0
    while start > 0:
        count = line_tokens[start - 1]
        if total + count > window_tokens and start < len(lines):
            break
        start -= 1
        total += count
        if total >= window_tokens:
            break
    return _MARKER + "".join(lines[start:])
