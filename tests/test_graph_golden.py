"""Golden SHA-256 digests of every registered dataset's CSR arrays.

Memo keys for the synthetic datasets carry only the dataset name, scale and
seed (``workload_memo_key``).  So a change to the generators, the builder's
neighbour order or the reorder path that alters graph bytes would keep
serving cached results computed on the old graphs.  These digests fail
first: any such change must update them and bump ``MEMO_VERSION``.

Each entry holds two digests over all six CSR arrays: one of the loaded
graph and one after DBG reordering, at scale 0.25.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import list_datasets, load
from repro.reorder import DBGReordering

SCALE = 0.25
FIELDS = ("out_index", "out_targets", "in_index", "in_sources", "out_weights", "in_weights")

#: (dataset, weighted) -> (digest of the loaded graph, digest after DBG).
GOLDEN = {
    ("lj", False): (
        "a12ea3a2b28c1188946d6af82c5ecca9109d17f5a94640e5c88ca43df6af0586",
        "1e139e1a2a42fa9b164ddc0d996bcd61e685ee0013763837411e2fe5e0622b61",
    ),
    ("lj", True): (
        "376486d3588f6febac19d4bce795751d15d306c227a1f797ac516b68551ea66c",
        "1e65ca412d63ef8b5643391cb784dc6aa54af49571726010214da759f97adf96",
    ),
    ("pl", False): (
        "ac4676f8407d372a5687e8b87c79f5316fb4d2127488dd6cfc861e0a8cb36325",
        "0759e7711279264de420327042347f72769239019abd73ed4251a800ceca12eb",
    ),
    ("pl", True): (
        "a8b38646ef57d1807120c0e48c41511bb23702ff0948ca0dc48e31854b386dfd",
        "5ae2a764c3652eac42d69b3cdf671d0f751bbaecbbe30c6a6b092faf95627671",
    ),
    ("tw", False): (
        "b825e85256f7031cd46a866e3231645b39cfcb6012f6461a7adb31996bada945",
        "be76d3f55a88bff6f9cfe994195d79d0ba845ae8b567ea491f05c0e03df77c46",
    ),
    ("tw", True): (
        "7ac949647b2ebba0235c5bb4f9f3aab0180e99d4c27cb9894c381e348a300f10",
        "dba8f5f26dbb9b675f540640efba2af2336ff540615476703ebf5cbedfccd53a",
    ),
    ("kr", False): (
        "20cc44a118dd933c59455e53cf780ddaf0364c8d13825aa3b027176a46887c66",
        "a283ee472a94743e63e77469d640781aab72c294e0ee65e27653e13db03e86e7",
    ),
    ("kr", True): (
        "abc3b133e496c978c85685c6e73a6b573922f6bdba24422c65abe5eaa815096c",
        "e5550672284bb017a83204afea4b615cfca9425865c6197d834580480e6de1b6",
    ),
    ("sd", False): (
        "f207bbc538553e4f37e55895fe70c24da9b554bcfdfae229effb648c221f3dd9",
        "e615bab2081f139ac528403ef3746b8c6f56cf55842fdac008dde083faf12900",
    ),
    ("sd", True): (
        "5345ab8559dcc68ec9f11dc3b31a1a903c49a7569db45d3d8853b5300fa5cf2a",
        "3813f1a8bcf385a2e8ab78450bc2a8bb90c7f3f3a3f8c2a2f3c4c59e004256f9",
    ),
    ("fr", False): (
        "6668ea1ea67f58cc77d4e6ca14ce25eb60c6ece8154e1f5b8ec97c1affefb06a",
        "9c0585965fc6536948f758bfd93c3f995bd02b6d3b30ca81148042c02332bb8d",
    ),
    ("fr", True): (
        "c30162927fe98aab0d4de54313f2837fbe67252e01a5760a07de8f6f14ba3de6",
        "315879b4a7cebbc527fcf9a544f6e53fd17bb1e2d221ee836bbd8c24bb4aee11",
    ),
    ("uni", False): (
        "d8bc459a6f87429559961091f7271d12e9b4f03814b63194b72daa63489cbb3f",
        "1ec40d99b6c6334b4787fe51c4ebf26866752e620550e42bd8077a7af3a498af",
    ),
    ("uni", True): (
        "b465c42d5d3c6a5590988c71792f2509cd3f64b8bf66cfec920054ab8cae1577",
        "d1a85a462d49156cf63909407e1c183d372c857032548d9e6c979a7812b78ee3",
    ),
}


def csr_digest(graph):
    """SHA-256 over the six CSR arrays; a missing weight array hashes as one NUL byte."""
    digest = hashlib.sha256()
    for field in FIELDS:
        array = getattr(graph, field)
        digest.update(field.encode())
        digest.update(b"\0" if array is None else np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_every_registered_dataset_is_pinned():
    assert {name for name, _ in GOLDEN} == set(list_datasets())


@pytest.mark.parametrize("dataset,weighted", sorted(GOLDEN))
def test_dataset_bytes_match_golden(dataset, weighted):
    graph = load(dataset, scale=SCALE, weighted=weighted)
    reordered = DBGReordering().apply(graph).graph
    assert (csr_digest(graph), csr_digest(reordered)) == GOLDEN[dataset, weighted]
