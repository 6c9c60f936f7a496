"""Deterministic line-by-line translator child for the talk-eval workload.

Reads one source per line on stdin and writes one translation per line,
flushed, never sleeping. Source words ``s<k>`` become ``t<k>``. Depending on a
CRC of the whole line it hallucinates a two-word ending or swaps the last two
words, the way a system trained on full sentences misreads a prefix, so that
consecutive translations get rewritten and word_up and mssg_up are non-zero.
"""

import sys
import zlib


def translate(line: str) -> str:
    words = ["t" + w[1:] if w[:1] == "s" else w for w in line.split()]
    h = zlib.crc32(line.encode("utf-8"))
    if h % 5 == 0:
        words += [f"t{h % 97}", "t1"]
    elif h % 7 == 3 and len(words) > 1:
        words[-2], words[-1] = words[-1], words[-2]
    return " ".join(words)


def main() -> None:
    out = sys.stdout
    for line in sys.stdin:
        out.write(translate(line) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
