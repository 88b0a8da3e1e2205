#!/usr/bin/env python3
"""Regenerate every analysis and benchmark table at desk scale.

Runs the compactness table, the continuous minimum, the incompressible-data
redundancy table, and (when the corpus is present) the Canterbury
compression, re-compression, and alphabet-compression reports.

Usage: python scripts/reproduce_tables.py [--corpus DIR] [--skip-bench]
Exits 5, naming the files on stderr, when a round trip fails: of the
corpus, alphabet-compression or re-compression runs.
"""

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from tritcode import bench  # noqa: E402
from tritcode.numeral import compactness, continuous_minimum  # noqa: E402


def compactness_table() -> None:
    print("== compactness of streamed base-b numbers vs plain binary ==")
    digit_range = range(2, 13)
    sys.stdout.write(bench.write_table(["b", *digit_range], [
        [base] + [f"{compactness(base, c).e_bar:.3f}" for c in digit_range]
        for base in range(3, 9)]))
    b_star, e_star = continuous_minimum()
    print(f"continuous minimum: ratio {e_star:.4f} at b = {b_star:.4f}")
    print()


def redundancy() -> None:
    print("== redundancy on incompressible data ==")
    sys.stdout.write(bench.format_redundancy(bench.redundancy_table(20)))
    print()


def corpus_tables(corpus: Path) -> int:
    missing = [f for f in bench.CANTERBURY_FILES if not (corpus / f).is_file()]
    if missing:
        print(f"corpus incomplete at {corpus} ({len(missing)} files missing); "
              f"run scripts/fetch_corpus.py first", file=sys.stderr)
        return 1
    print(f"== Canterbury corpus at L=8 and L=16 ({corpus}) ==")
    reports, totals, _ = bench.run_corpus(corpus, (8, 16))
    sys.stdout.write(bench.format_corpus(reports + totals))
    print()

    print("== re-compression of the L=8 outputs ==")
    rows, total_row, _ = bench.run_recompress(corpus, 8, (3, 6, 9))
    sys.stdout.write(bench.format_recompress(rows + [total_row], (3, 6, 9)))
    print()

    print("== alphabet compression at L=16 ==")
    packed, _, _ = bench.run_corpus(corpus, (16,), compress_alphabet=True)
    plain = [r for r in reports if r.letter_bits == 16]
    sys.stdout.write(bench.write_table(
        ["file", "total", "alpha raw", "alpha packed", "gain %"],
        [[r.name, r.compressed_bytes, r.alphabet_bytes, q.alphabet_bytes,
          f"{(r.compressed_bytes - q.compressed_bytes) / r.compressed_bytes * 100:.2f}"]
         for r, q in zip(plain, packed)]))
    failed = dict.fromkeys(
        r.name for r in reports + rows + packed if not r.roundtrip_ok)
    for name in failed:
        print(f"ROUND TRIP FAILED: {name}", file=sys.stderr)
    return 5 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", type=Path,
                        default=REPO_ROOT / "corpus" / "canterbury")
    parser.add_argument("--skip-bench", action="store_true",
                        help="only the corpus-free tables")
    args = parser.parse_args()
    compactness_table()
    redundancy()
    if args.skip_bench:
        return 0
    return corpus_tables(args.corpus)


if __name__ == "__main__":
    sys.exit(main())
