"""PGT2 bytes of every suite workload are pinned.

The content digest of a trace covers its segment map, record count and
every packed record byte, so pinning it pins the ``.pgt`` file a trace
store writes. Existing trace caches and result-cache keys (which embed
the trace digest) stay valid only while these constants hold; a change
to the simulator, compiler or encoder that moves one must bump
``repro.trace.io.FORMAT_VERSION`` or the cache schema on purpose.
"""

import pytest

from repro.trace.io import read_trace_digest, read_trace_file, write_trace_file
from repro.workloads.suite import load_workload

CAP = 2000

#: (workload, optimize) -> sha256 content digest of its cap-2000 trace.
PINNED = {
    ("cc1x", False): "9326abf03b1bbb2670e8682c66940fd7b0e20467c6448791090dd21a4c780643",
    ("cc1x", True): "12a4c38c3dabf8024abcfa68134b09cd6a8800c8c6f5301bfd562c4538c2485a",
    ("doducx", False): "417229eb65dbbee5df87c5a228183c46b3276a4048c3a122f2ac655014d8db10",
    ("doducx", True): "4ea57d07cdae7985dbc678c20d718dfd0d2a02232e2f100a0b2e68780ec9df8a",
    ("eqntottx", False): "a8998f0ebe47c1b1838a08e53ff87e1bc97048ec63dcbf66060c2761fc5fe4d8",
    ("eqntottx", True): "92b91c1c2ef0b0f175292eb1c77ce35ec8a5bccdcf2dc64fe20e3e5b37f0d9a1",
    ("espressox", False): "e43d19bb0de9bd97cacc8d358636e20b6df1e00754e897d57b4c6bdc8ab7d24d",
    ("espressox", True): "2975a23c8ce150412a8a67ebc55bf4f911ddcc5cd16e58b08f2e64a1424fc373",
    ("fppppx", False): "92d0ea3831ec862e1ef19b151f10922a53eaf30d51641bda23ece73b385c2beb",
    ("fppppx", True): "1d7b5a9e3246389971e4b08001b4d638e4a62f850de32a27b524a74038292a1c",
    ("matrix300x", False): "9a3e20c644af06195c6e0c16d847aea36caac960f6e15fdfec28b3c31aa5eb80",
    ("matrix300x", True): "d012bbd3b1b9211b0c3ad09f56bbc1910c7d6aeb1ab7dac08bcf3bb0348936ea",
    ("naskerx", False): "2fe8b9abca207bff00594bb80aeb8251c92410910bdeb96129dd2834f1965e5b",
    ("naskerx", True): "da657763a4309cad176e64b870f0f59f2ff9536ffff98bc1d3c59be485f97bf0",
    ("spice2g6x", False): "d4d315503d96a563b363f2cfe1e85791ea14182010683aaa3755f834c206adda",
    ("spice2g6x", True): "375bfba17a8d6e08e2c1286b296b46be99e26a27035327b8105c736ddadbd87c",
    ("tomcatvx", False): "248f46058ba80770639d61570fc6281caa28fce0ed18c99d3738bfc518347034",
    ("tomcatvx", True): "b025a427508af5287878e53110884a133afd2ecf6251016cd5038795d0d1f3c7",
    ("xlispx", False): "4a24d4879a5f5399bf87d84e4995a1b58eb306a6b9b881d9f3b4df55bafffd6f",
    ("xlispx", True): "b2f15e89da490686eda89148be366a0cdc0b4fc1a99c0219c6ef421c3fbaa5f8",
}


@pytest.mark.parametrize(
    "name,optimize", sorted(PINNED), ids=[f"{n}-{'opt' if o else 'plain'}" for n, o in sorted(PINNED)]
)
def test_trace_digest_pinned(name, optimize, tmp_path):
    trace = load_workload(name).trace(max_instructions=CAP, optimize=optimize)
    assert len(trace) == CAP
    pinned = PINNED[(name, optimize)]
    assert trace.digest() == pinned
    path = tmp_path / f"{name}.pgt"
    assert write_trace_file(path, trace) == pinned
    assert read_trace_digest(path) == pinned
    decoded = read_trace_file(path)
    assert decoded.digest() == pinned
    assert list(decoded) == list(trace)
