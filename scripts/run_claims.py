#!/usr/bin/env python3
"""Run every registered claim and print one verdict row per claim.

Typical use:

    python3 scripts/run_claims.py            # all claims at n <= 3
    python3 scripts/run_claims.py --n 2      # faster desk pass
    python3 scripts/run_claims.py --claim DUALITY_PRINCIPLE --n 3 --show-witness

Every claim is exhaustive except INTERSECT_CLOSURE at n = 3, which draws a
fixed 20,000 index tuples; --seed picks the stream (0 by default).

Exit codes: 0 every claim is verified and replays, 1 a claim is refuted
or a witness fails to replay, 2 bad arguments (such as --n 0 or
--seed -1, one `error: ...` line on stderr) or output that cannot be
written (a full or closed stdout).
"""

import argparse
import os
import sys
import time

from biposet import CLAIM_DESCRIPTIONS, CLAIM_IDS, UsageError, replay_finding, verify_claim


def run(claims, n_max, seed, show_witness):
    """Print one row per claim; True when any claim is unverified or any
    stored witness fails to replay."""
    any_failure = False
    width = max(len(c) for c in claims)
    for claim in claims:
        start = time.perf_counter()
        finding = verify_claim(claim, n_max, seed=seed)
        elapsed = time.perf_counter() - start
        replays = replay_finding(finding)
        any_failure |= not replays
        replay = "replays" if replays else "REPLAY FAILED"
        print(f"{claim:<{width}}  {finding.verdict:<22} "
              f"scale={','.join(str(v) for v in finding.scale):<6} "
              f"instances={finding.instances_checked:<12,} "
              f"{elapsed:6.2f}s  {replay}")
        for note in finding.notes:
            print(f"{'':<{width}}  note: {note}")
        if not finding.verified:
            any_failure = True
            if show_witness and finding.witness:
                for key, value in finding.witness.items():
                    print(f"{'':<{width}}  witness {key}:")
                    text = value if isinstance(value, str) else repr(value) + "\n"
                    for line in text.rstrip("\n").split("\n"):
                        print(f"{'':<{width}}    {line}")
    return any_failure


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--claim", choices=list(CLAIM_IDS), default=None,
                        help="run a single claim (default: all)")
    parser.add_argument("--n", type=int, default=3, help="largest ground-set size")
    parser.add_argument("--seed", type=int, default=None,
                        help="sampler seed (default: 0 where a claim samples); "
                             "claims that do not sample note it as unused")
    parser.add_argument("--show-witness", action="store_true",
                        help="print the stored witness of any counterexample")
    parser.add_argument("--describe", action="store_true",
                        help="list claim descriptions and exit")
    args = parser.parse_args(argv)

    if args.describe:
        for claim in CLAIM_IDS:
            print(f"{claim}: {CLAIM_DESCRIPTIONS[claim]}")
        return 0

    claims = [args.claim] if args.claim else list(CLAIM_IDS)
    try:
        any_failure = run(claims, args.n, args.seed, args.show_witness)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if any_failure else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()      # a full or closed stdout raises here, not at exit
    except OSError as exc:
        # the null device takes fd 1 so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        code = 2
    sys.exit(code)
