#!/usr/bin/env python3
"""The verdict of scripts/bench.sh: paired parent/change runs, one rule.

    CLAIM='row[,row...]' python3 scripts/paired.py suite DIR
    CLAIM='row[,row...]' python3 scripts/paired.py workload DIR BENCHMARK.json

DIR holds parent.1 ... parent.N and change.1 ... change.N, pair i being
parent.i and change.i. In suite mode each file is the JSON row array that
`texbench -suite -out` writes; in workload mode it is the result line of one
`benchmark/run.sh` run.

A gated row is an op row that carries a tolerance, or an end-to-end metric of
BENCHMARK.json (which carries a bound). Each gets one verdict (see judge):
faster, slower or same. CLAIM names the rows the change claims a gain on (a
suite op, which covers each of its rows at every GOMAXPROCS, a row such as
"op/ns_per_op" or "op/ns_per_op (N)", or an end-to-end metric); only a
claimed row can read faster, and an unclaimed row that
wins reads unclaimed (see claimed). The script prints a line per gated row
and exits 1 on any slower verdict, on a CLAIM entry that names no gated row, on a change-side result check that failed (verified
false), on a change median past a row's absolute limit, and on a change-side
benchmark run that was incorrect or had failed requests.

Standard library only, like benchmark/repeat.sh. The doctests are the rule's
tests: python3 -m doctest scripts/paired.py
"""
import json
import os
import statistics
import sys

# A side must win at least this many of every ten pairs to count as faster
# or slower; ties count for neither side.
WIN_SHARE = 0.9


def wins(parent, change, better):
    """Return (pairs the change won, pairs it lost); ties count for neither.

    >>> wins([10, 10, 10], [9, 10, 11], "lower")
    (1, 1)
    >>> wins([10, 10, 10], [9, 10, 11], "higher")
    (1, 1)
    >>> wins([1, 2], [3, 4], "higher")
    (2, 0)
    """
    won = lost = 0
    for p, c in zip(parent, change, strict=True):
        if c == p:
            continue
        if (c < p) == (better == "lower"):
            won += 1
        else:
            lost += 1
    return won, lost


def iqr(values):
    """Distance between the quartiles, as benchmark/repeat.sh takes them.

    >>> iqr([100, 101, 102, 103, 104, 105, 106, 107, 108, 109])
    5.5
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(parent, change, better, slack):
    """The verdict on one gated row.

    parent and change are the row's values in pair order. better is "lower"
    or "higher". slack is how far, in the row's own units, the change median
    may be worse than the parent median before the row can read slower: the
    op row's tolerance or the metric's bound, already scaled.

    faster: the change wins at least 9 of 10 pairs and its median is better
    by more than the parent's IQR. slower: it loses at least 9 of 10 pairs
    and its median is worse by more than the parent's IQR and by more than
    slack. same: anything else.

    The parent below reads 100..109: median 104.5, IQR 5.5. The slack is
    21 throughout, what a tolerance of 20% makes of a 105 median.

    >>> p = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    >>> up = lambda d: [v + d for v in p]

    9 of 10 pairs decide; 8 do not, and a tie is no win for either side.

    >>> judge(p, up(-30), "lower", 21)
    'faster'
    >>> judge(p, up(-30)[:9] + [p[9]], "lower", 21)
    'faster'
    >>> judge(p, up(-30)[:8] + p[8:], "lower", 21)
    'same'
    >>> judge(p, up(-30)[:8] + [p[8], p[9] + 1], "lower", 21)
    'same'
    >>> judge(p, up(30)[:9] + [p[9]], "lower", 21)
    'slower'
    >>> judge(p, up(30)[:8] + [p[8], p[9] - 1], "lower", 21)
    'same'

    The medians must differ by more than the parent's IQR (5.5): a change
    that wins every pair by exactly the IQR is the same.

    >>> judge(p, up(-5.5), "lower", 0)
    'same'
    >>> judge(p, up(-5.6), "lower", 0)
    'faster'
    >>> judge(p, up(5.6), "lower", 0)
    'slower'

    A slower row must also be worse by more than its slack: 10 of 10 pairs
    lost by 21 is within it, by 21.5 past it.

    >>> judge(p, up(21), "lower", 21)
    'same'
    >>> judge(p, up(21.5), "lower", 21)
    'slower'

    When higher is better, a lower change is the slower one.

    >>> judge(p, up(-21.5), "higher", 21)
    'slower'
    >>> judge(p, up(-21), "higher", 21)
    'same'
    >>> judge(p, up(6), "higher", 21)
    'faster'

    A row that reads the same in every run, a sim row say, has no winner.

    >>> judge([7] * 10, [7] * 10, "lower", 0)
    'same'
    """
    won, lost = wins(parent, change, better)
    need = WIN_SHARE * len(parent)
    gain = statistics.median(parent) - statistics.median(change)
    if better == "higher":
        gain = -gain
    spread = iqr(parent)
    if won >= need and gain > spread:
        return "faster"
    if lost >= need and -gain > spread and -gain > slack:
        return "slower"
    return "same"


def claimed(verdict, is_claimed):
    """The verdict a row prints once CLAIM is read.

    Only a claimed row reads faster. A win on an unclaimed row reads
    unclaimed, which fails nothing: on identical code about one row in 38
    wins by chance, so a gain counts only where it was named before the run.

    >>> claimed("faster", True), claimed("faster", False)
    ('faster', 'unclaimed')

    slower and same stand whether or not the row is claimed.

    >>> claimed("slower", True), claimed("slower", False), claimed("same", True)
    ('slower', 'slower', 'same')
    """
    return "unclaimed" if verdict == "faster" and not is_claimed else verdict


def read_claims():
    """The CLAIM environment variable as a set of row names.

    >>> os.environ["CLAIM"] = " sift_extract_256, search_p50_ms ,"
    >>> sorted(read_claims())
    ['search_p50_ms', 'sift_extract_256']
    >>> del os.environ["CLAIM"]
    >>> read_claims()
    set()
    """
    return {c.strip() for c in os.environ.get("CLAIM", "").split(",") if c.strip()}


def unmatched(claims, seen):
    """A problem for each CLAIM entry that named no gated row.

    >>> unmatched({"a", "b"}, {"a"})
    ['CLAIM names b, which is no gated row']
    """
    return [f"CLAIM names {c}, which is no gated row" for c in sorted(claims - seen)]


def past(value, limit, better):
    """Whether value is on the worse side of an absolute limit.

    >>> past(5.1, 5, "lower"), past(5, 5, "lower"), past(4.9, 5, "higher")
    (True, False, True)
    """
    return value < limit if better == "higher" else value > limit


def load_runs(directory, side, read):
    runs = []
    while os.path.exists(path := os.path.join(directory, f"{side}.{len(runs) + 1}")):
        with open(path) as f:
            runs.append(read(f))
    return runs


def read_rows(f):
    return {(r["op"], r.get("gomaxprocs", 0)): r for r in json.load(f)}


def read_result(f):
    return json.loads(f.read().splitlines()[-1])


def report(name, parent, change, better, slack, is_claimed):
    verdict = claimed(judge(parent, change, better, slack), is_claimed)
    won, lost = wins(parent, change, better)
    print(f"{name:<58} {statistics.median(parent):>13.5g} {iqr(parent):>11.4g} "
          f"{statistics.median(change):>13.5g} {won:>2}/{len(parent)} {lost:>2}/{len(parent)}  {verdict}")
    return verdict


def header(what):
    print(f"{what:<58} {'parent p50':>13} {'parent IQR':>11} {'change p50':>13} {'won':>5} {'lost':>5}  verdict")


def suite(directory, claims):
    parent = load_runs(directory, "parent", read_rows)
    change = load_runs(directory, "change", read_rows)
    if len(parent) < 2 or len(parent) != len(change):
        sys.exit(f"paired.py: {len(parent)} parent and {len(change)} change runs in {directory}")
    return judge_suite(parent, change, claims)


def judge_suite(parent, change, claims=frozenset()):
    """Judge every change row against its parent runs; return (problems,
    the number of slower rows).

    A win reads faster only on a claimed row; unclaimed, it fails nothing.
    A claim names a suite op (each of its rows), a row, or a row at one
    GOMAXPROCS.

    >>> def runs(op, values):
    ...     return [{(op, 1): dict(op=op, gomaxprocs=1, clock="wall", unit="ns",
    ...              better="lower", tolerance=0.2, value=v)} for v in values]
    >>> p = runs("op_a/ns_per_op", range(100, 110))
    >>> c = runs("op_a/ns_per_op", range(70, 80))
    >>> for claim in "op_a", "op_a/ns_per_op", "op_a/ns_per_op (1)":
    ...     judge_suite(p, c, {claim})  # doctest: +ELLIPSIS
    op ...
    op_a/ns_per_op (1) ... 10/10  0/10  faster
    ([], 0)
    op ...
    op_a/ns_per_op (1) ... 10/10  0/10  faster
    ([], 0)
    op ...
    op_a/ns_per_op (1) ... 10/10  0/10  faster
    ([], 0)
    >>> judge_suite(p, c)  # doctest: +ELLIPSIS
    op ...
    op_a/ns_per_op (1) ... 10/10  0/10  unclaimed
    ([], 0)

    A claim on a row the run did not judge is a problem.

    >>> judge_suite(p, c, {"op_b"})  # doctest: +ELLIPSIS
    op ...
    op_a/ns_per_op (1) ... unclaimed
    (['CLAIM names op_b, which is no gated row'], 0)

    A row the parent runs lack (an op the change adds, whose parent runs are
    empty row sets) has no verdict: it prints its change median, and its own
    limit and result check still gate.

    >>> def new(value, **gate):
    ...     row = dict(op="new_op", gomaxprocs=1, clock="wall", unit="ns",
    ...                better="lower", tolerance=0.2, value=value, **gate)
    ...     return {("new_op", 1): row}
    >>> judge_suite([{}] * 10, [new(5)] * 10)  # doctest: +NORMALIZE_WHITESPACE
    op (GOMAXPROCS) parent p50 parent IQR change p50 won lost verdict
    new_op (1) (not in the parent) 5
    ([], 0)
    >>> judge_suite([{}] * 10, [new(5, limit=4)] * 10)  # doctest: +ELLIPSIS
    op ...
    (['new_op (1): change median 5 ns is past the absolute limit 4'], 0)
    >>> judge_suite([{}] * 10, [new(5)] * 9 + [new(5, verified=False)])  # doctest: +ELLIPSIS
    op ...
    (['new_op (1): result check failed in change run 10'], 0)
    """
    problems, slower, seen = [], 0, set()
    header("op (GOMAXPROCS)")
    for key, row in change[0].items():
        label = f"{key[0]} ({key[1]})" if key[1] else key[0]
        values = [run[key]["value"] for run in change]
        for i, run in enumerate(change, 1):
            if run[key].get("verified") is False:
                problems.append(f"{label}: result check failed in change run {i}")
        if "limit" in row and past(statistics.median(values), row["limit"], row["better"]):
            problems.append(f"{label}: change median {statistics.median(values):.6g} {row['unit']} "
                            f"is past the absolute limit {row['limit']:.6g}")
        if "tolerance" not in row:
            continue
        names = {key[0].split("/")[0], key[0], label} & claims
        seen |= names
        if any(key not in run for run in parent):
            print(f"{label:<58} {'(not in the parent)':>25} {statistics.median(values):>13.5g}")
            continue
        base = [run[key]["value"] for run in parent]
        slack = row["tolerance"]
        if row["clock"] != "count":
            slack *= abs(statistics.median(base))
        slower += report(label, base, values, row["better"], slack, bool(names)) == "slower"
    return problems + unmatched(claims, seen), slower


def workload(directory, spec_path, claims):
    with open(spec_path) as f:
        spec = json.load(f)
    parent = load_runs(directory, "parent", read_result)
    change = load_runs(directory, "change", read_result)
    if len(parent) < 2 or len(parent) != len(change):
        sys.exit(f"paired.py: {len(parent)} parent and {len(change)} change runs in {directory}")
    problems, slower = [], 0
    for i, r in enumerate(change, 1):
        if not r["correct"] or r["failed"]:
            problems.append(f"change run {i} was incorrect or had {r['failed']} failed requests")
    header("end-to-end metric")
    for m in spec["end_to_end"]:
        base = [r["metrics"][m["name"]]["value"] for r in parent]
        values = [r["metrics"][m["name"]]["value"] for r in change]
        slack = m["bound"] * abs(statistics.median(base))
        slower += report(m["name"], base, values, m["better"], slack, m["name"] in claims) == "slower"
    seen = {m["name"] for m in spec["end_to_end"]}
    return problems + unmatched(claims, claims & seen), slower


def main(argv):
    claims = read_claims()
    if len(argv) == 3 and argv[1] == "suite":
        problems, slower = suite(argv[2], claims)
    elif len(argv) == 4 and argv[1] == "workload":
        problems, slower = workload(argv[2], argv[3], claims)
    else:
        sys.exit("usage: [CLAIM=row,...] paired.py suite DIR | paired.py workload DIR BENCHMARK.json")
    for p in problems:
        print("FAIL:", p)
    if slower:
        print(f"FAIL: {slower} row(s) read slower")
    return 1 if problems or slower else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
