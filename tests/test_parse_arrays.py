"""The array-form TU parser against the line-by-line parser it replaced.

`oracle_parse` and `oracle_adjacency` are the previous
`parse_tu_dataset` and loop-based `build_normalized_adjacency`, kept as
test-only references. On randomly generated TU directories every
`Graph` field must match them bitwise, types included. The second half
checks that each malformed input raises a `ParseError` that names its
file (or graph) and line.
"""
import os

import numpy as np
import pytest

from lgrpool.data import (
    Graph,
    GraphDataset,
    _normalized_blocks,
    build_normalized_adjacency,
    emit_tu_dataset,
    parse_tu_dataset,
)
from lgrpool.errors import ParseError
from lgrpool.sparse import SparseMatrix

# ---------------------------------------------------------------- oracle


def oracle_adjacency(num_nodes, edges):
    deg = np.ones(num_nodes, dtype=np.float64)
    for i, j in edges:
        deg[i] += 1.0
        deg[j] += 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows = list(range(num_nodes))
    cols = list(range(num_nodes))
    vals = [inv_sqrt[i] * inv_sqrt[i] for i in range(num_nodes)]
    for i, j in edges:
        w = inv_sqrt[i] * inv_sqrt[j]
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((w, w))
    return SparseMatrix.from_coo(rows, cols, vals, (num_nodes, num_nodes))


def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ParseError(f"missing mandatory file: {path}") from exc


def _read_optional(path):
    if not os.path.isfile(path):
        return None
    return _read_lines(path)


def oracle_parse(dir_path, name):
    prefix = os.path.join(dir_path, name + "_")
    indicator = _read_lines(prefix + "graph_indicator.txt")
    edge_lines = _read_lines(prefix + "A.txt")
    label_lines = _read_lines(prefix + "graph_labels.txt")
    node_label_lines = _read_optional(prefix + "node_labels.txt")
    node_attr_lines = _read_optional(prefix + "node_attributes.txt")

    num_nodes_total = len(indicator)
    num_graphs = len(label_lines)
    if num_graphs == 0:
        raise ParseError(f"{prefix}graph_labels.txt: no graphs")

    graph_of_node = np.empty(num_nodes_total, dtype=np.int64)
    for ln_no, raw in enumerate(indicator):
        gid = int(raw)
        if gid < 1 or gid > num_graphs:
            raise ParseError(
                f"{prefix}graph_indicator.txt line {ln_no + 1}: "
                f"graph id {gid} out of range"
            )
        graph_of_node[ln_no] = gid - 1

    nodes_per_graph = np.bincount(graph_of_node, minlength=num_graphs)
    for gid in range(num_graphs):
        if nodes_per_graph[gid] == 0:
            raise ParseError(f"graph {gid + 1} has zero nodes")
    first_node = np.zeros(num_graphs, dtype=np.int64)
    first_node[1:] = np.cumsum(nodes_per_graph)[:-1]

    edges_per_graph = [set() for _ in range(num_graphs)]
    for ln_no, raw in enumerate(edge_lines):
        parts = raw.split(",")
        if len(parts) != 2:
            raise ParseError(f"{prefix}A.txt line {ln_no + 1}: expected 'i, j'")
        u, v = int(parts[0]), int(parts[1])
        if u < 1 or u > num_nodes_total or v < 1 or v > num_nodes_total:
            raise ParseError(
                f"{prefix}A.txt line {ln_no + 1}: node id out of range"
            )
        u -= 1
        v -= 1
        if u == v:
            continue
        gu, gv = graph_of_node[u], graph_of_node[v]
        if gu != gv:
            raise ParseError(
                f"{prefix}A.txt line {ln_no + 1}: edge crosses graphs "
                f"{gu + 1} and {gv + 1}"
            )
        lo = int(min(u, v) - first_node[gu])
        hi = int(max(u, v) - first_node[gu])
        edges_per_graph[gu].add((lo, hi))

    raw_labels = [int(ln) for ln in label_lines]
    label_map = {lab: idx for idx, lab in enumerate(sorted(set(raw_labels)))}
    labels = [label_map[lab] for lab in raw_labels]

    node_labels_all = None
    label_vocab = None
    if node_label_lines is not None:
        if len(node_label_lines) != num_nodes_total:
            raise ParseError(
                f"{prefix}node_labels.txt: {len(node_label_lines)} lines for "
                f"{num_nodes_total} nodes"
            )
        node_labels_all = [int(ln) for ln in node_label_lines]
        label_vocab = {
            lab: idx for idx, lab in enumerate(sorted(set(node_labels_all)))
        }

    node_attrs_all = None
    if node_attr_lines is not None:
        if len(node_attr_lines) != num_nodes_total:
            raise ParseError(
                f"{prefix}node_attributes.txt: {len(node_attr_lines)} lines "
                f"for {num_nodes_total} nodes"
            )
        node_attrs_all = np.array(
            [[float(tok) for tok in ln.split(",")] for ln in node_attr_lines],
            dtype=np.float64,
        )

    graphs = []
    for gid in range(num_graphs):
        n = int(nodes_per_graph[gid])
        base = int(first_node[gid])
        edges = sorted(edges_per_graph[gid])

        blocks = []
        g_node_labels = None
        g_node_attrs = None
        if node_labels_all is not None:
            g_node_labels = node_labels_all[base : base + n]
            onehot = np.zeros((n, len(label_vocab)), dtype=np.float64)
            for row, lab in enumerate(g_node_labels):
                onehot[row, label_vocab[lab]] = 1.0
            blocks.append(onehot)
        if node_attrs_all is not None:
            g_node_attrs = node_attrs_all[base : base + n]
            blocks.append(g_node_attrs)
        if not blocks:
            blocks.append(np.ones((n, 1), dtype=np.float64))
        features = np.concatenate(blocks, axis=1)
        if not np.all(np.isfinite(features)):
            raise ParseError(f"graph {gid + 1}: non-finite feature entries")

        graphs.append(
            Graph(
                num_nodes=n,
                edges=edges,
                features=features,
                label=labels[gid],
                adj_norm=oracle_adjacency(n, edges),
                node_labels=g_node_labels,
                node_attributes=g_node_attrs,
            )
        )

    return GraphDataset(
        graphs=graphs,
        num_classes=len(label_map),
        feature_dim=graphs[0].features.shape[1],
        name=name,
    )


# ------------------------------------------------------------- comparison


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_adjacency(got, want):
    # Every stored entry is 1/sqrt(d_i d_j) > 0, so shape, nnz and the dense
    # bytes determine the canonical CSR.
    assert got.shape == want.shape and got.nnz == want.nnz
    assert_same_array(got.to_dense(), want.to_dense())


def assert_same_dataset(got, want):
    assert got.name == want.name
    assert type(got.num_classes) is int and got.num_classes == want.num_classes
    assert type(got.feature_dim) is int and got.feature_dim == want.feature_dim
    assert len(got.graphs) == len(want.graphs)
    for g, w in zip(got.graphs, want.graphs):
        assert type(g.num_nodes) is int and g.num_nodes == w.num_nodes
        assert type(g.label) is int and g.label == w.label
        assert type(g.edges) is list and g.edges == w.edges
        assert all(type(e) is tuple and len(e) == 2 for e in g.edges)
        assert all(type(x) is int for e in g.edges for x in e)
        if w.node_labels is None:
            assert g.node_labels is None
        else:
            assert type(g.node_labels) is list and g.node_labels == w.node_labels
            assert all(type(x) is int for x in g.node_labels)
        if w.node_attributes is None:
            assert g.node_attributes is None
        else:
            assert_same_array(g.node_attributes, w.node_attributes)
        assert_same_array(g.features, w.features)
        assert_same_adjacency(g.adj_norm, w.adj_norm)


# -------------------------------------------------------------- generator


FEATURE_MODES = ("labels", "attributes", "both", "neither")
GRAPH_LABELS = (-7, -1, 0, 3, 42)
NODE_LABELS = (-5, 2, 9, 100)


def _edge_line(rng, u, v):
    fmt = ("{}, {}", "{},{}", " {} ,\t{} ")[int(rng.integers(3))]
    return fmt.format(u, v)


def random_tu_dir(rng, root, name, mode):
    """Write one random TU directory; return the features it exercises."""
    seen = {mode}
    num_graphs = int(rng.integers(1, 7))
    dims = int(rng.integers(1, 4))
    graphs, a_lines, offset = [], [], 0
    for _ in range(num_graphs):
        n = 1 if rng.random() < 0.2 else int(rng.integers(2, 12))
        graphs.append(
            Graph(
                num_nodes=n,
                edges=[],
                features=None,
                label=int(rng.choice(GRAPH_LABELS)),
                adj_norm=None,
                node_labels=[int(x) for x in rng.choice(NODE_LABELS, n)]
                if mode in ("labels", "both")
                else None,
                node_attributes=rng.normal(0.0, 3.0, (n, dims))
                if mode in ("attributes", "both")
                else None,
            )
        )
        touched = set()
        for _ in range(int(rng.integers(0, 3 * n))):
            i, j = (int(x) for x in rng.integers(0, n, 2))
            touched.update((i, j))
            if i == j:
                seen.add("self-loop")
            a_lines.append(_edge_line(rng, offset + i + 1, offset + j + 1))
            if i != j and rng.random() < 0.5:
                a_lines.append(_edge_line(rng, offset + j + 1, offset + i + 1))
            else:
                seen.add("one direction")
            if rng.random() < 0.15:
                a_lines.append(a_lines[-1])
                seen.add("duplicate line")
        if len(touched) < n:
            seen.add("isolated node")
        if n == 1:
            seen.add("single-node graph")
        offset += n
    if any(g.label < 0 for g in graphs):
        seen.add("negative graph label")
    ds = GraphDataset(graphs=graphs, num_classes=0, feature_dim=0, name=name)
    emit_tu_dataset(ds, os.path.join(root, name))
    rng.shuffle(a_lines)
    a_path = os.path.join(root, name, name + "_A.txt")
    with open(a_path, "w", encoding="utf-8") as fh:
        fh.write("".join(ln + "\n" for ln in a_lines))
    if not a_lines:
        seen.add("empty A.txt")
    for fname in os.listdir(os.path.join(root, name)):
        if rng.random() < 0.3:
            path = os.path.join(root, name, fname)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            at = int(rng.integers(0, len(lines) + 1))
            lines[at:at] = ["", "  \t"][: int(rng.integers(1, 3))]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            seen.add("blank lines")
    return seen


def test_parser_matches_line_oracle_on_random_directories(tmp_path):
    rng = np.random.default_rng(2024)
    seen = set()
    for case in range(240):
        name = f"R{case}"
        seen |= random_tu_dir(rng, str(tmp_path), name, FEATURE_MODES[case % 4])
        path = str(tmp_path / name)
        assert_same_dataset(parse_tu_dataset(path, name), oracle_parse(path, name))
    assert seen >= {
        *FEATURE_MODES,
        "self-loop",
        "one direction",
        "duplicate line",
        "isolated node",
        "single-node graph",
        "negative graph label",
        "empty A.txt",
        "blank lines",
    }


def test_adjacency_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        # duplicates and self-loops, which the parser never passes, too
        edges = [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(int(rng.integers(0, 3 * n)))]
        want = oracle_adjacency(n, edges)
        assert_same_adjacency(build_normalized_adjacency(n, edges), want)
        assert_same_adjacency(build_normalized_adjacency(n, np.array(edges, dtype=np.int64).reshape(-1, 2)), want)


def _csr_bytes(adj):
    csr = adj._csr
    return csr.shape, [(a.dtype, a.tobytes()) for a in (csr.indptr, csr.indices, csr.data)]


def test_block_slices_match_one_graph_builds():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(200):
        sizes = rng.integers(1, 12, size=int(rng.integers(1, 8))).tolist()
        node_start = np.r_[0, np.cumsum(sizes)].tolist()
        per_graph = []
        for n in sizes:
            count = 0 if rng.random() < 0.2 else int(rng.integers(0, 2 * n))
            per_graph.append(rng.integers(0, n, size=(count, 2)))
            seen.add("single-node graph" if n == 1 else "larger graph")
            seen.add("edgeless graph" if count == 0 else "edges")
            if len(np.unique(per_graph[-1])) < n:
                seen.add("isolated node")
        ends = np.concatenate([e + a for e, a in zip(per_graph, node_start)])
        blocks = _normalized_blocks(node_start, ends)
        assert len(blocks) == len(sizes)
        for n, graph_ends, block in zip(sizes, per_graph, blocks):
            assert _csr_bytes(block) == _csr_bytes(build_normalized_adjacency(n, graph_ends))
    assert seen >= {"single-node graph", "larger graph", "edgeless graph", "edges", "isolated node"}


def _write_valid(d, name, edit=lambda text: text):
    d.mkdir()
    for s, body in VALID.items():
        with open(d / f"{name}_{s}", "w", encoding="utf-8", newline="") as fh:
            fh.write(edit(body))
    return str(d)


def test_parse_builds_one_sparse_matrix(tmp_path, monkeypatch):
    shapes = []
    from_coo = SparseMatrix.from_coo
    monkeypatch.setattr(SparseMatrix, "from_coo", lambda *args: shapes.append(args[3]) or from_coo(*args))
    ds = parse_tu_dataset(_write_valid(tmp_path / "OK", "OK"), "OK")
    assert [g.num_nodes for g in ds.graphs] == [2, 2]
    assert shapes == [(4, 4)]


@pytest.mark.parametrize(
    "case, edit, fast",
    [
        ("crlf", lambda text: text.replace("\n", "\r\n"), True),
        ("no final newline", lambda text: text[:-1], True),
        ("whitespace-only line", lambda text: text.replace("\n", "\n \t\n", 1), False),
    ],
)
def test_files_read_in_one_pass_unless_a_line_is_whitespace(tmp_path, monkeypatch, case, edit, fast):
    # The one-pass read hands numpy the path; the line-by-line read, a list of lines.
    sources = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(type(source))
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    path = _write_valid(tmp_path / "OK", "OK", edit)
    got = parse_tu_dataset(path, "OK")
    assert sources == ([str] if fast else [str, list]) * len(VALID)
    assert_same_dataset(got, oracle_parse(path, "OK"))


def test_non_ascii_space_stays_malformed(tmp_path):
    # Decoded as UTF-8, numpy reads "2\u00a0" as 2; the line reader decodes latin1 and rejects it.
    path = _write_valid(tmp_path / "BAD", "BAD")
    (tmp_path / "BAD" / "BAD_graph_labels.txt").write_bytes("1\n2\u00a0\n".encode())
    with pytest.raises(ParseError, match="graph_labels.txt line 2"):
        parse_tu_dataset(path, "BAD")


# --------------------------------------------------------------- malformed


VALID = {
    "A.txt": "1, 2\n2, 1\n3, 4\n4, 3\n",
    "graph_indicator.txt": "1\n1\n2\n2\n",
    "graph_labels.txt": "1\n2\n",
    "node_labels.txt": "0\n1\n1\n0\n",
    "node_attributes.txt": "0.5, 1\n1.5, 2\n2.5, 3\n3.5, 4\n",
}

MALFORMED = {
    "token in A.txt": ("A.txt", "1, 2\n2, x\n", ["BAD_A.txt line 2"]),
    "token in graph_indicator.txt": ("graph_indicator.txt", "1\n1\nq\n2\n", ["graph_indicator.txt line 3"]),
    "token in graph_labels.txt": ("graph_labels.txt", "1\n2.5\n", ["graph_labels.txt line 2"]),
    "token in node_labels.txt": ("node_labels.txt", "0\n1\n1\nz\n", ["node_labels.txt line 4"]),
    "token in node_attributes.txt": (
        "node_attributes.txt",
        "0.5, 1\n1.5, 2\n2.5, abc\n3.5, 4\n",
        ["node_attributes.txt line 3"],
    ),
    "empty token": ("A.txt", "1, 2\n2,\n", ["BAD_A.txt line 2"]),
    "3-column A.txt row": ("A.txt", "1, 2\n2, 1, 3\n", ["BAD_A.txt line 2"]),
    "3-column first A.txt row": ("A.txt", "1, 2, 3\n2, 1\n", ["BAD_A.txt line 1"]),
    "2-column indicator": ("graph_indicator.txt", "1\n1, 1\n2\n2\n", ["graph_indicator.txt line 2"]),
    "graph id out of range": ("graph_indicator.txt", "1\n1\n2\n3\n", ["graph_indicator.txt line 4", "graph id 3"]),
    "graph id zero": ("graph_indicator.txt", "0\n1\n2\n2\n", ["graph_indicator.txt line 1", "graph id 0"]),
    "graph ids not ascending": ("graph_indicator.txt", "1\n2\n1\n2\n", ["graph_indicator.txt line 3"]),
    "node id out of range": ("A.txt", "1, 2\n2, 9\n", ["BAD_A.txt line 2", "node id out of range"]),
    "zero-node graph": ("graph_labels.txt", "1\n2\n1\n", ["graph 3 has zero nodes"]),
    "crossing edge": ("A.txt", "1, 2\n2, 3\n", ["BAD_A.txt line 2", "graphs 1 and 2"]),
    "earliest of crossing and range": ("A.txt", "1, 2\n2, 3\n0, 1\n", ["BAD_A.txt line 2", "crosses"]),
    "earliest of range and crossing": ("A.txt", "1, 2\n5, 1\n2, 3\n", ["BAD_A.txt line 2", "out of range"]),
    "ragged node_attributes.txt": ("node_attributes.txt", "0.5, 1\n1.5\n2.5, 3\n3.5, 4\n", ["node_attributes.txt line 2"]),
    "node_labels.txt line count": ("node_labels.txt", "0\n1\n1\n", ["node_labels.txt", "3 lines for 4 nodes"]),
    "non-finite attribute": (
        "node_attributes.txt",
        "0.5, 1\n1.5, 2\n2.5, nan\n3.5, 4\n",
        ["graph 2: non-finite", "node_attributes.txt line 3"],
    ),
    "line numbers count blank lines": ("A.txt", "1, 2\n\n  \n2, x\n", ["BAD_A.txt line 4"]),
    "mask errors count blank lines": (
        "graph_indicator.txt",
        "\n1\n1\n\n2\n3\n",
        ["graph_indicator.txt line 6", "graph id 3"],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_names_file_and_line(tmp_path, case):
    suffix, text, expected = MALFORMED[case]
    d = tmp_path / "BAD"
    d.mkdir()
    for s, body in {**VALID, suffix: text}.items():
        (d / f"BAD_{s}").write_text(body)
    with pytest.raises(ParseError) as info:
        parse_tu_dataset(str(d), "BAD")
    for part in expected:
        assert part in str(info.value)


def test_valid_base_parses_and_empty_a_txt_does_not_warn(tmp_path, recwarn):
    d = tmp_path / "OK"
    d.mkdir()
    for s, body in {**VALID, "A.txt": ""}.items():
        (d / f"OK_{s}").write_text(body)
    ds = parse_tu_dataset(str(d), "OK")
    assert [g.edges for g in ds.graphs] == [[], []]
    assert len(recwarn) == 0
