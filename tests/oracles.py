"""Independent brute-force oracles.

Everything here works on labels and plain-Python dict walks, deliberately
sharing no code with the engine.  The engine's dictionary-encoded, vectorized
results are compared against these after decoding.  ResultMap/update_map is
the reference fold: merged tuples folded one at a time into per-role maps.
decode_cells is the reference renderer: one label lookup per cell, then a
sort of the label rows.
"""

import operator

ALL_LABEL = "All"

# Folding a running value with an incoming partial aggregate: partial counts
# are pre-aggregated cells, so they add up.
FOLDS = {"sum": operator.add, "min": min, "max": max, "count": operator.add}


class ArityMismatch(Exception):
    pass


class ResultMap:
    """Coordinate-tuple -> aggregate value map populated by update_map."""

    def __init__(self, arity, agg):
        self.arity = arity
        self.fold = FOLDS[agg]
        self.data = {}

    def __len__(self):
        return len(self.data)

    def as_dict(self):
        return dict(self.data)


def update_map(h, key, m):
    """Insert m under key, or fold it into the existing value."""
    key = tuple(key)
    if len(key) != h.arity:
        raise ArityMismatch(f"key arity {len(key)} does not match map arity {h.arity}")
    h.data[key] = h.fold(h.data[key], m) if key in h.data else m
    return h


def decode_cells(cube, cells):
    """Decoded label rows, sorted lexicographically by the grouper labels."""
    header = [f"{g.dimension_name}.{g.name}" for g in cells.schema.groupers]
    header.append(cells.schema.measure_alias)
    dims = [cube.schema.dimension(g.dimension_name) for g in cells.schema.groupers]
    rows = []
    for coords, value in cells.items():
        labels = [dim.member_label(g, code)
                  for dim, g, code in zip(dims, cells.schema.groupers, coords)]
        labels.append(str(value))
        rows.append(labels)
    rows.sort(key=lambda r: r[:-1])
    return header, rows


class HierarchyOracle:
    """Label-level model of a dimension, built from ancestor-path rows."""

    def __init__(self, level_names, rows):
        self.level_names = list(level_names) + ["ALL"]
        n = len(self.level_names)
        self.members = [[] for _ in range(n)]
        seen = [set() for _ in range(n)]
        self.parent = [dict() for _ in range(n - 1)]
        for row in rows:
            full = list(row) + [ALL_LABEL]
            for d, label in enumerate(full):
                if label not in seen[d]:
                    seen[d].add(label)
                    self.members[d].append(label)
            for d in range(n - 1):
                self.parent[d][full[d]] = full[d + 1]

    def index(self, level_name):
        return self.level_names.index(level_name)

    def anc(self, from_name, to_name, label):
        d, target = self.index(from_name), self.index(to_name)
        while d < target:
            label = self.parent[d][label]
            d += 1
        return label

    def desc(self, from_name, to_name, label):
        return [m for m in self.members[self.index(to_name)]
                if self.anc(to_name, from_name, m) == label]

    def siblings(self, level_name, label):
        d = self.index(level_name)
        parent_name = self.level_names[d + 1]
        return self.desc(parent_name, level_name, self.anc(level_name, parent_name, label))


def naive_filter(fact_rows, condition):
    """Row ids matching every atom. ``condition`` is a list of
    (dim_name, oracle, level_name, allowed label set)."""
    ids = []
    for i, row in enumerate(fact_rows):
        ok = True
        for dim_name, oracle, level_name, allowed in condition:
            rolled = oracle.anc(oracle.level_names[0], level_name, row[dim_name])
            if rolled not in allowed:
                ok = False
                break
        if ok:
            ids.append(i)
    return ids


def naive_execute(fact_rows, measure_values, condition, groupers, agg):
    """Nested-loop group-by.  ``groupers`` is a list of
    (dim_name, oracle, level_name); returns {label tuple: aggregate}."""
    ids = naive_filter(fact_rows, condition)
    groups = {}
    for i in ids:
        key = tuple(
            oracle.anc(oracle.level_names[0], level_name, fact_rows[i][dim_name])
            for dim_name, oracle, level_name in groupers
        )
        groups.setdefault(key, []).append(measure_values[i])
    out = {}
    for key, vals in groups.items():
        if agg == "sum":
            out[key] = sum(vals)
        elif agg == "min":
            out[key] = min(vals)
        elif agg == "max":
            out[key] = max(vals)
        elif agg == "count":
            out[key] = len(vals)
        else:
            raise ValueError(agg)
    return out


def spearman_rho(xs, ys):
    """Spearman rank correlation with average ranks for ties."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        rank = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                rank[order[k]] = avg
            i = j + 1
        return rank
    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den if den else 0.0
