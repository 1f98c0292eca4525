"""Replay one ``repro`` CLI operation in a fresh interpreter, timing each
call into a layer.

Usage::

    python3 perfbench/replay.py SPANS_OUT mine|classify|cluster ARGS...
    python3 perfbench/replay.py SPANS_OUT pool-probe

It imports ``repro.cli``, parses ``ARGS`` with the CLI's own parser and
then calls the public functions the command calls, with the same
arguments, printing the same text.  Spans (name, start, end on the
system-wide monotonic clock) stay in memory and are written to
``SPANS_OUT`` as JSON after the output is printed.  ``pool-probe`` times
the first no-op map on a fresh ``shared_pool(2)``.
"""

import json
import sys
import time

SPANS = []


def timed(name, fn, *args, **kwargs):
    start = time.monotonic()
    value = fn(*args, **kwargs)
    SPANS.append((name, start, time.monotonic()))
    return value


def _noop(task, ctx=None):
    return task


def _mine(args, counts):
    from repro import registry
    from repro.associations import generate_rules
    from repro.datasets import load_transactions
    from repro.runtime.context import ExecutionContext

    spec = registry.get("associations", args.miner)
    db = timed("datasets.load_transactions", load_transactions, args.path)
    # A bare context is byte-identical to none; it carries the pass count.
    kwargs = {"ctx": ExecutionContext()}
    if args.jobs is not None and spec.capabilities.parallelizable:
        kwargs["n_jobs"] = args.jobs
    itemsets = timed("associations.mine", spec.factory, db, args.min_support,
                     **kwargs)
    rules = timed("associations.rules", generate_rules, itemsets,
                  args.min_confidence)
    counts.update(itemsets=len(itemsets), rules=len(rules),
                  passes=kwargs["ctx"].counters.steps,
                  jobs=kwargs.get("n_jobs", 1))
    from inputs import render_mine

    return render_mine(db, itemsets, rules, args.min_support,
                       args.min_confidence, args.top)


def _classify(args, counts):
    from repro import registry
    from repro.datasets import load_table
    from repro.evaluation import classification_report
    from repro.preprocessing import train_test_split

    spec = registry.get("classification", args.classifier)
    table = timed("datasets.load_table", load_table, args.path)
    train, test = timed("preprocessing.split", train_test_split, table,
                        args.test_fraction, stratify=args.target,
                        random_state=args.seed)
    model = spec.factory()
    timed("classification.fit", model.fit, train, args.target)
    accuracy = timed("classification.score", model.score, test)
    y_true = [test.value(i, args.target) for i in range(test.n_rows)]
    y_pred = timed("classification.predict", model.predict, test)
    report = timed("evaluation.report", classification_report, y_true, y_pred)
    from inputs import render_classify

    return render_classify(args.classifier, args.path, train, test, accuracy,
                           report)


def _cluster(args, counts):
    from repro import registry
    from repro.datasets import load_table
    from repro.evaluation import silhouette, sse
    from repro.runtime.context import ExecutionContext

    spec = registry.get("clustering", args.algorithm)
    table = timed("datasets.load_table", load_table, args.path)
    X = timed("core.to_matrix", table.to_matrix)
    kwargs = {}
    if args.jobs is not None and spec.capabilities.parallelizable:
        kwargs["n_jobs"] = args.jobs
    model = spec.make(ExecutionContext(), k=args.k, eps=args.eps,
                      min_samples=args.min_samples, seed=args.seed, **kwargs)
    labels = timed("clustering.fit", model.fit_predict, X)
    sse_value = timed("evaluation.sse", sse, X, labels)
    sil = None
    if len(set(labels.tolist()) - {-1}) >= 2:
        sil = timed("evaluation.silhouette", silhouette, X, labels)
    counts.update(n_iter=getattr(model, "n_iter_", None) or 0)
    from inputs import render_cluster

    return render_cluster(args.algorithm, args.path, X, labels, sse_value, sil)


def _pool_probe(counts):
    from repro.runtime.parallel import close_shared_pools, shared_pool

    timed("runtime.pool_spawn", lambda: shared_pool(2).map(_noop, [0, 1]))
    timed("runtime.pool_close", close_shared_pools)
    return ""


COMMANDS = {"mine": _mine, "classify": _classify, "cluster": _cluster}


def main():
    spans_out, command, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.monotonic()
    import repro.cli

    SPANS.append(("cli.import", start, time.monotonic()))
    counts = {}
    if command == "pool-probe":
        text = _pool_probe(counts)
    else:
        args = timed("cli.parse",
                     lambda: repro.cli.build_parser().parse_args(
                         [command, *argv]))
        text = COMMANDS[command](args, counts)
    sys.stdout.write(text)
    sys.stdout.flush()
    with open(spans_out, "w") as handle:
        json.dump({"spans": SPANS, "counts": counts}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
