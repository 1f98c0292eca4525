"""Seeded inputs for the benchmark workloads, and their reference outputs.

Every input is generated with :mod:`repro.datasets` at a fixed *shape*
(the generator's own ``random_state``), then the run's ``--seed`` draws
an isomorphic copy of it: basket item ids are relabelled by a random
permutation and rows are shuffled; table rows are shuffled; blob points
are shuffled and translated.  A different seed therefore gives different
files whose mining work is the same -- the ROADMAP reference basket
keeps its 4,415 itemsets and 61,491 rules under every seed -- so
run-to-run spread measures the program, not the luck of the draw.

The ``render_*`` functions reproduce the text ``repro mine|classify|
cluster`` prints.  The replayer prints through them, and the
verification compares every CLI process's stdout with them applied to
an in-process reference run.

Set-up runs this file in a fresh interpreter (``python3 inputs.py
WORKLOAD WORKDIR SEED SCALE``): per-process speed varies on a shared
host, so each timed set-up gets its own process, and the time excludes
the interpreter's start and imports.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

import harness

#: input sizes per scale; "small" is for the benchmark's self-tests.
SIZES = {
    "full": {
        "basket_rows": 4000, "table_rows": 4000, "blob_points": 3000,
        "server_basket_rows": 1000, "server_table_rows": 2000,
        "server_blob_points": 2000,
    },
    "small": {
        "basket_rows": 600, "table_rows": 600, "blob_points": 500,
        "server_basket_rows": 300, "server_table_rows": 400,
        "server_blob_points": 400,
    },
}

#: generator random_state that fixes each input's shape.  Basket shape 1
#: is the ROADMAP's reference basket.
BASKET_SHAPE = 1
TABLE_SHAPE = 0
BLOB_SHAPE = 0
SERVER_BASKET_SHAPES = (11, 12, 13)


@dataclass
class Dataset:
    """One generated input file and the properties reports cite."""

    name: str
    path: str
    kind: str  # "basket" or "table"
    props: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> Dict[str, Any]:
        with open(self.path, "rb") as handle:
            data = handle.read()
        return {"name": self.name, "path": os.path.basename(self.path),
                "kind": self.kind, "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest()[:16],
                **self.props}


def seeded_rng(seed: int, salt: str) -> np.random.Generator:
    """A generator drawn from the run seed and a per-input salt."""
    digest = hashlib.sha256(f"{seed}:{salt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def write_basket(path: str, rows: int, shape: int, seed: int) -> Dataset:
    """Quest basket of fixed shape, item ids and row order drawn by seed."""
    from repro.datasets import quest_basket, save_transactions
    from repro.core.transactions import TransactionDatabase

    base = quest_basket(rows, random_state=shape)
    rng = seeded_rng(seed, f"basket-{shape}")
    relabel = rng.permutation(base.n_items).tolist()
    order = rng.permutation(len(base)).tolist()
    db = TransactionDatabase(
        [[relabel[item] for item in base[i]] for i in order]
    )
    save_transactions(db, path)
    return Dataset(os.path.basename(path), path, "basket", {
        "rows": len(db), "items": db.n_items,
        "avg_transaction_length": round(db.avg_transaction_length(), 3),
    })


def write_agrawal(path: str, rows: int, shape: int, seed: int) -> Dataset:
    """Agrawal F1 table of fixed shape, row order drawn by seed."""
    from repro.datasets import agrawal, save_table

    base = agrawal(rows, function=1, random_state=shape)
    table = base.take(seeded_rng(seed, f"agrawal-{shape}").permutation(rows))
    save_table(table, path)
    return Dataset(os.path.basename(path), path, "table", {
        "rows": table.n_rows, "columns": len(table.attributes),
    })


def write_blobs(path: str, points: int, centers: int, shape: int,
                seed: int) -> Dataset:
    """Gaussian blobs of fixed shape, shuffled and translated by seed."""
    from repro.core.table import Table, numeric
    from repro.datasets import gaussian_blobs, save_table

    X, _ = gaussian_blobs(points, centers=centers, random_state=shape)
    rng = seeded_rng(seed, f"blobs-{shape}")
    X = X[rng.permutation(points)] + np.round(rng.uniform(-20, 20, 2), 2)
    save_table(Table([numeric("x"), numeric("y")],
                     {"x": X[:, 0], "y": X[:, 1]}), path)
    return Dataset(os.path.basename(path), path, "table", {
        "rows": points, "columns": 2, "centers": centers,
    })


def write_variant(source: Dataset, path: str, rng: np.random.Generator) -> None:
    """Rewrite ``source`` as different bytes that parse to the same data.

    Basket lines get their items reordered (the loader sorts them);
    numeric cells with a decimal point get a trailing zero at random (the
    loader parses floats).  The server's result cache keys on file
    bytes, so each variant is a cache miss whose result is still the
    source's result byte for byte.
    """
    with open(source.path) as handle:
        lines = handle.read().splitlines()
    out: List[str] = []
    if source.kind == "basket":
        for line in lines:
            items = line.split(" ")
            rng.shuffle(items)
            out.append(" ".join(items))
    else:
        out.append(lines[0])
        numeric = [name.endswith(":num") for name in lines[0].split(",")]
        for line in lines[1:]:
            cells = line.split(",")
            flips = (rng.random(len(cells)) < 0.5) & numeric
            out.append(",".join(
                cell + "0" if flip and "." in cell and "e" not in cell
                else cell
                for cell, flip in zip(cells, flips)
            ))
    with open(path, "w") as handle:
        handle.write("\n".join(out) + "\n")


def generate(workload: str, workdir: str, seed: int,
             scale: str) -> List[Dataset]:
    """Write every input ``workload`` reads into ``workdir``."""
    sizes = SIZES[scale]
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    if workload == "mine-cli":
        return [write_basket(path("basket.dat"), sizes["basket_rows"],
                             BASKET_SHAPE, seed)]
    if workload == "table-cli":
        return [write_agrawal(path("agrawal.csv"), sizes["table_rows"],
                              TABLE_SHAPE, seed),
                write_blobs(path("blobs.csv"), sizes["blob_points"], 3,
                            BLOB_SHAPE, seed)]
    return [write_basket(path(f"basket{i}.dat"), sizes["server_basket_rows"],
                         shape, seed)
            for i, shape in enumerate(SERVER_BASKET_SHAPES)] + [
        write_agrawal(path("agrawal.csv"), sizes["server_table_rows"],
                      TABLE_SHAPE, seed),
        write_blobs(path("blobs.csv"), sizes["server_blob_points"], 4,
                    BLOB_SHAPE, seed),
    ]


def generate_fresh(rc, workload: str) -> Tuple[float, List[Dataset]]:
    """Run :func:`generate` in a fresh interpreter.

    Returns ``(seconds spent generating, datasets)``.
    """
    argv = [rc.python, os.path.abspath(__file__), workload, rc.workdir,
            str(rc.seed), rc.scale]
    _, _, code, out, err, _ = harness.run_process(
        argv, rc.env, rc.workdir, 120.0, rc.leaks.sessions)
    if code != 0:
        raise RuntimeError(f"input generation failed: {err[-1000:]}")
    payload = json.loads(out.splitlines()[-1])
    return payload["seconds"], [Dataset(**d) for d in payload["datasets"]]


# ----------------------------------------------------------------------
# The text the CLI prints
# ----------------------------------------------------------------------
def render_mine(db, itemsets, rules, min_support, min_confidence,
                top: int = 10) -> str:
    lines = [f"{len(db)} transactions, {db.n_items} items, "
             f"avg length {db.avg_transaction_length():.1f}",
             f"{len(itemsets)} frequent itemsets at support "
             f">= {min_support} (largest size {itemsets.max_size()})"]
    for itemset, count in itemsets.sorted_by_support()[:top]:
        lines.append(f"  {set(itemset)}  count={count}")
    lines.append(f"{len(rules)} rules at confidence >= {min_confidence}")
    lines.extend(f"  {rule}" for rule in rules[:top])
    return "\n".join(lines) + "\n"


def render_classify(classifier, path, train, test, accuracy, report) -> str:
    lines = [f"{classifier} on {path}: "
             f"train {train.n_rows} / test {test.n_rows}",
             f"test accuracy: {accuracy:.4f}"]
    for label, entry in report.items():
        lines.append(
            f"  class {label!r}: precision={entry.precision:.3f} "
            f"recall={entry.recall:.3f} f1={entry.f1:.3f} (n={entry.support})"
        )
    return "\n".join(lines) + "\n"


def render_cluster(algorithm, path, X, labels, sse_value, silhouette_value
                   ) -> str:
    clusters = sorted(set(labels.tolist()) - {-1})
    noise = int((labels == -1).sum())
    lines = [f"{algorithm} on {path}: {len(X)} points, {X.shape[1]} features",
             f"clusters: {len(clusters)}"
             + (f", noise points: {noise}" if noise else "")]
    for cluster_id in clusters:
        member = labels == cluster_id
        centroid = X[member].mean(axis=0)
        rounded = ", ".join(f"{v:.3g}" for v in centroid)
        lines.append(f"  cluster {cluster_id}: {int(member.sum())} points, "
                     f"centroid ({rounded})")
    lines.append(f"SSE: {sse_value:.2f}")
    if silhouette_value is not None:
        lines.append(f"silhouette: {silhouette_value:.3f}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# In-process references
# ----------------------------------------------------------------------
def reference_mine(path: str, min_support: float, min_confidence: float):
    """Expected ``repro mine`` stdout, from fp_growth + generate_rules.

    Returns ``(text, n_itemsets, n_rules)``.
    """
    from repro.associations import fp_growth, generate_rules
    from repro.datasets import load_transactions

    db = load_transactions(path)
    itemsets = fp_growth(db, min_support)
    rules = generate_rules(itemsets, min_confidence)
    return (render_mine(db, itemsets, rules, min_support, min_confidence),
            len(itemsets), len(rules))


def reference_classify(path: str, target: str, classifier: str = "c45",
                       test_fraction: float = 0.3, seed: int = 0) -> str:
    """Expected ``repro classify`` stdout, from the same library calls."""
    from repro import registry
    from repro.datasets import load_table
    from repro.evaluation import classification_report
    from repro.preprocessing import train_test_split

    table = load_table(path)
    train, test = train_test_split(table, test_fraction, stratify=target,
                                   random_state=seed)
    model = registry.get("classification", classifier).factory()
    model.fit(train, target)
    y_true = [test.value(i, target) for i in range(test.n_rows)]
    report = classification_report(y_true, model.predict(test))
    return render_classify(classifier, path, train, test, model.score(test),
                           report)


def reference_cluster(path: str, k: int, algorithm: str = "kmeans",
                      seed: int = 0) -> str:
    """Expected ``repro cluster`` stdout, from the same library calls."""
    from repro import registry
    from repro.datasets import load_table
    from repro.evaluation import silhouette, sse

    X = load_table(path).to_matrix()
    model = registry.get("clustering", algorithm).make(
        None, k=k, eps=0.5, min_samples=5, seed=seed)
    labels = model.fit_predict(X)
    n_clusters = len(set(labels.tolist()) - {-1})
    sil = silhouette(X, labels) if n_clusters >= 2 else None
    return render_cluster(algorithm, path, X, labels, sse(X, labels), sil)


if __name__ == "__main__":
    import repro.core.table  # noqa: F401  imports stay out of the timing
    import repro.datasets  # noqa: F401

    _workload, _workdir, _seed, _scale = sys.argv[1:5]
    _start = time.monotonic()
    _datasets = generate(_workload, _workdir, int(_seed), _scale)
    print(json.dumps({"seconds": time.monotonic() - _start,
                      "datasets": [asdict(d) for d in _datasets]}))
