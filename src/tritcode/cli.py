"""Command-line interface.

Thin wrappers only: every verb calls straight into the library and prints.
Exit codes: 0 success, 1 internal error, 2 usage, 3 I/O, 4 malformed
container, 5 corrupted or truncated data.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, codebook, container, numeral
from .errors import CorruptedDataError, FormatError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_CORRUPT = 5


def _parse_range(text: str) -> range:
    """Inclusive 'a..b' range syntax, e.g. '3..8'."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritcode",
        description="Lossless compression with deterministic "
                    "binary-ternary prefix codes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compress", help="compress a file into a .btn container")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--bits", type=int, default=8, metavar="L",
                   help="letter width in bits, 1..32 (default 8)")
    p.add_argument("--compress-alphabet", action="store_true",
                   help="store the alphabet compressed when that is smaller")

    p = sub.add_parser("decompress", help="restore the original file")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)

    p = sub.add_parser("inspect", help="dump container structure")
    p.add_argument("input", type=Path)

    p = sub.add_parser("codebook", help="print codewords of one code set")
    p.add_argument("--set", dest="set_number", type=int, required=True,
                   metavar="N", help=f"code set number, 1..{codebook.MAX_SET_NUMBER}")
    p.add_argument("--limit", type=int, default=None, metavar="M",
                   help="print only the first M codewords")

    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("directory", type=Path)
    table.add_argument("--report", choices=("csv", "text"), default="text")
    modes = sub.add_parser("bench", help="benchmark a corpus directory"
                           ).add_subparsers(dest="mode", required=True)
    p = modes.add_parser("corpus", parents=[table],
                         help="compress every corpus file at each width")
    p.add_argument("--bits", type=int, nargs="+", default=[8, 16],
                   help="letter widths (default 8 16)")
    p.add_argument("--compress-alphabet", action="store_true")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers, at most one per file and width "
                        "(1 = sequential, stable timings)")
    p = modes.add_parser("recompress", parents=[table],
                         help="compress each first-pass output again at other widths")
    p.add_argument("--first", type=int, default=8,
                   help="first-pass width (default 8)")
    p.add_argument("--second", type=int, nargs="+", default=[3, 6, 9],
                   help="second-pass widths (default 3 6 9)")

    p = sub.add_parser("analyze", help="numeric analysis tables")
    p.add_argument("mode", choices=("compactness", "minimum", "redundancy"))
    p.add_argument("--bases", type=_parse_range, default=range(3, 9),
                   metavar="A..B", help="bases for compactness (default 3..8)")
    p.add_argument("--digits", type=_parse_range, default=range(2, 13),
                   metavar="A..B", help="digit counts (default 2..12)")
    p.add_argument("--max-bits", type=int, default=20,
                   help="largest letter width for redundancy (default 20)")

    p = sub.add_parser("tabular", help="show a number's matrix and coded forms")
    p.add_argument("value", type=int)
    p.add_argument("base", type=int)

    return parser


def _cmd_compress(args) -> int:
    data = args.input.read_bytes()
    blob = container.compress(data, args.bits,
                              compress_alphabet=args.compress_alphabet)
    args.output.write_bytes(blob)
    if data:
        bpb = len(blob) / len(data) * 8
        pct = len(blob) / len(data) * 100
        print(f"{args.output}: {len(data)} -> {len(blob)} bytes, "
              f"{bpb:.4f} bits/byte, {pct:.2f}%")
    else:
        print(f"{args.output}: empty input, {len(blob)} bytes")
    return EXIT_OK


def _cmd_decompress(args) -> int:
    data = container.decompress(args.input.read_bytes())
    args.output.write_bytes(data)
    print(f"{args.output}: {len(data)} bytes restored")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    info = container.describe(args.input.read_bytes())
    h = info.header
    print(f"version:        {h.version}")
    print(f"flags:          {h.flags:#x}"
          + (" (alphabet compressed)" if h.alphabet_packed else ""))
    print(f"letter bits:    {h.letter_bits}")
    print(f"original bits:  {h.original_bit_length}")
    print(f"alphabet power: {info.m}")
    print(f"code set:       {info.n if info.n else 'degenerate'}")
    print(f"letters:        {info.letter_count}")
    preview = " ".join(f"{v:#x}" for v in info.letters[:8])
    if info.m > 8:
        preview += " ..."
    print(f"alphabet:       {info.alphabet_block_bytes} bytes [{preview}]")
    print(f"payload:        {info.payload_bytes} bytes, {info.payload_bits} bits"
          f" + {info.padding_bits} padding")
    return EXIT_OK


def _cmd_codebook(args) -> int:
    n = args.set_number
    limit = args.limit if args.limit is not None else 3 ** n
    for cw in codebook.iter_codes(n, limit):
        print(f"{cw.index}\t{cw.trits}\t{cw.bits}\t{len(cw.bits)}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.mode == "corpus":
        reports, totals, missing = bench.run_corpus(
            args.directory, tuple(args.bits),
            compress_alphabet=args.compress_alphabet, jobs=args.jobs)
        sys.stdout.write(bench.format_corpus(reports + totals, args.report))
        failed = [r.name for r in reports if not r.roundtrip_ok]
    else:
        rows, totals, missing = bench.run_recompress(
            args.directory, args.first, tuple(args.second))
        sys.stdout.write(bench.format_recompress(
            rows + [totals], tuple(args.second), args.report))
        failed = []
    for name in missing:
        print(f"missing: {name}", file=sys.stderr)
    for name in failed:
        print(f"ROUND TRIP FAILED: {name}", file=sys.stderr)
    return EXIT_CORRUPT if failed else EXIT_OK


def _cmd_analyze(args) -> int:
    if args.mode == "compactness":
        print("b,c_b,c_2,e_bar")
        for point in numeral.compactness_table(args.bases, args.digits):
            print(f"{point.b},{point.c_b},{point.c_2},{point.e_bar:.3f}")
    elif args.mode == "minimum":
        b_star, e_star = numeral.continuous_minimum()
        print(f"b* = {b_star:.4f}, ratio = {e_star:.4f}")
    else:
        sys.stdout.write(bench.format_redundancy(
            bench.redundancy_table(args.max_bits)))
    return EXIT_OK


def _cmd_tabular(args) -> int:
    form = numeral.tabular_form(args.value, args.base)
    print(f"{args.value} in base {args.base}: "
          + "".join(str(d) for d in form.digits))
    print(numeral.format_tabular(form))
    if args.base >= 3:
        print("reduced:")
        print(numeral.format_reduced(form))
        econ = numeral.economical_encode(args.value, args.base)
        print(numeral.format_economical(econ))
    return EXIT_OK


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "inspect": _cmd_inspect,
    "codebook": _cmd_codebook,
    "bench": _cmd_bench,
    "analyze": _cmd_analyze,
    "tabular": _cmd_tabular,
}


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.verb](args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CorruptedDataError as exc:
        print(f"corrupt data: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # a fault of the program, not of its input
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
