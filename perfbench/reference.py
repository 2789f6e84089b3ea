"""A fixed reference task for gauging the machine's speed; it does not use bibliorank.

    python3 perfbench/reference.py

Builds the same small CSV table every time, parses it, indexes it and sums a
score per group, much as the CLI's commands load and score a corpus, so that
the reference and the commands slow down alike when the machine does. Run as
a child process, it also pays interpreter start-up, as every command does.
"""
import csv
import io
import math
from collections import defaultdict

ROWS = 6000


def table() -> str:
    lines = ["pub_id,researcher_id,university_id,sds,year,citations,n_authors"]
    for i in range(ROWS):
        lines.append(f"PUB{i:06d},R{i * 7 % 1201:05d},UNI{i % 23:03d},"
                     f"SDS{i % 11:03d},{2001 + i % 8},{i * 13 % 29},{1 + i % 5}")
    return "\n".join(lines) + "\n"


def main() -> int:
    rows = list(csv.DictReader(io.StringIO(table())))
    by_pub = {row["pub_id"]: row for row in rows}
    groups = defaultdict(list)
    for row in by_pub.values():
        share = int(row["citations"]) / int(row["n_authors"])
        groups[row["university_id"], row["sds"], row["year"]].append(math.sqrt(share))
    return len(sorted((math.fsum(v), k) for k, v in groups.items()))


if __name__ == "__main__":
    main()
