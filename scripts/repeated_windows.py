#!/usr/bin/env python3
"""Count the lines of Rust source that sit in repeated 6-line windows.

    scripts/repeated_windows.py crates/kernels/src [more files or dirs]

A window is 6 consecutive whitespace-normalized lines before the file's
`#[cfg(test)]`, with at least 5 lines longer than 3 characters that are
not `//` comments. Every line of a window that occurs twice or more
across the given files counts once. Prints per-file counts and the
total. A size measure for refactors, not a gate.
"""
import sys
from collections import defaultdict
from pathlib import Path

WINDOW, SIGNIFICANT = 6, 5

files = sorted(f for a in sys.argv[1:] for f in
               ([Path(a)] if Path(a).is_file() else Path(a).rglob("*.rs")))
seen = defaultdict(list)
for f in files:
    lines = []
    for line in f.read_text().splitlines():
        if line.strip().startswith("#[cfg(test)]"):
            break
        lines.append(" ".join(line.split()))
    for i in range(len(lines) - WINDOW + 1):
        w = tuple(lines[i:i + WINDOW])
        if sum(len(l) > 3 and not l.startswith("//") for l in w) >= SIGNIFICANT:
            seen[w].append((f, i))
marked = defaultdict(set)
for places in seen.values():
    if len(places) > 1:
        for f, i in places:
            marked[f].update(range(i, i + WINDOW))
for f in files:
    if marked[f]:
        print(f"{len(marked[f]):5} {f}")
print(f"{sum(map(len, marked.values())):5} total")
