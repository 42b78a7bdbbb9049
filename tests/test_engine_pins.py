"""Frozen forwarding tables for every registered routing engine.

Each engine routes one faulted paper plane (fault seed 0): the 672-node
HyperX, or the Fat-Tree for the engines defined on it.  Engines that
take far longer than a few seconds there (LASH, Nue) or that cannot
route it in eight lanes (Valiant) use the ×2-shrunk HyperX, which
still misses two cables.  Each pin holds the sha256 of ``dump_lft()``,
the lane count and a sha256 of every DLID's lane, so any refactor of
an engine, the VL layering or the table store must reproduce the same
bytes.
"""

import hashlib

import pytest

from repro.ib.subnet_manager import OpenSM
from repro.routing import create_engine, engine_names, sm_kwargs_for
from repro.topology.t2hx import t2hx_fattree, t2hx_hyperx

PLANES = {
    "hyperx": lambda: t2hx_hyperx(with_faults=True, seed=0),
    "hyperx-x2": lambda: t2hx_hyperx(with_faults=True, seed=0, scale=2),
    "fattree": lambda: t2hx_fattree(with_faults=True, seed=0),
}

#: engine -> (plane, sha256 of dump_lft(), num_vls, sha256 of the lanes).
ENGINE_PINS = {
    "dfsssp": (
        "hyperx",
        "f649c4af0b65928b775391b55c35e3084e107b3e1e4a192079d88f09bd63d763",
        5,
        "6a6c9a6846191889fd0cf28c26460a82a158b396bbdb423892dc84818ba2ce5a",
    ),
    "fatpaths": (
        "hyperx",
        "7734e1f551cb7460990b9f1aaee75bfba962da849e183b3fcdc2e3d6a159527b",
        6,
        "41814fade99d42ae39ec15cae8a2946adf2bf1de60ec8ed8d27adff5de342d9f",
    ),
    "fthx": (
        "hyperx",
        "9039cff4e6d1e32b74f971f93aec45abe1f7b726bf213066ee348f46eb8d5214",
        3,
        "6e69ff54231cb283ad8b82df1b9aa935e8c72ce121b5ae5fcf78db9f8b05fad0",
    ),
    "ftree": (
        "fattree",
        "5b8d706108a518ea9a70a46442551c4ae4bd13a8cfe844456705bf51c8aa36b1",
        1,
        "50f9ccd52a3749c3d7eb7758f0152bccb971455d292faf27768fd78aaf6691fd",
    ),
    "lash": (
        "hyperx-x2",
        "290bfea312b7dbd378f92dfa352b1446aa2b47a0d4de8f9e6c61be860d9b17a9",
        2,
        "495c6164459a3e7b4717ce2109a1b5aca2cb893c2eebb0ecfa50e35de222be10",
    ),
    "minhop": (
        "hyperx",
        "0ff53b856b36ed75efae90a5905fb2fda2e65082ee43acbfb3a2fa9a14371253",
        2,
        "8eea8163623a7190e461dc353919298345ba592e7cae39a5605f3989409c5c48",
    ),
    "nue": (
        "hyperx-x2",
        "efaaf4faa0070851d821e14be80d3c2154afb3b45b0b2f23b36dce96f6682f49",
        2,
        "63c828bf4bdfdf2829b358eeffb12621a4ce888e06ff6371ade1d4eeb236b407",
    ),
    "parx": (
        "hyperx",
        "869e03984099d1f0e3675a6e0635bd5fd08eec61ebb621b42c6a59c0ce28ead9",
        5,
        "f077973a1ff2c9d4089356dbc2ccd33e9ee9976571f41e662784fcba2295d6e3",
    ),
    "parx-nd": (
        "hyperx",
        "411f76687880ce7c3abf8ab292dcc076cbe27bade3bcc361b7451fe0d0b8cc31",
        6,
        "1bc4cfe8caa1a4184315e5e615f550730863ae798f71003b1b1e9b5214c372f6",
    ),
    "sssp": (
        "fattree",
        "d5ef0236a4a019f7746ab3a45a1bb595ea8c0be065d0b1b4704645260045cd6f",
        1,
        "50f9ccd52a3749c3d7eb7758f0152bccb971455d292faf27768fd78aaf6691fd",
    ),
    "updown": (
        "fattree",
        "909b64ebff99a66277091772efb3307ffba09205513e8dec8c41d9f9bed921f0",
        1,
        "50f9ccd52a3749c3d7eb7758f0152bccb971455d292faf27768fd78aaf6691fd",
    ),
    "valiant": (
        "hyperx-x2",
        "cbfe6ccfc6104abf46218d59ed12b861e7232b6478ba97bad213718af43c91a7",
        7,
        "8ca0c1e9c5b92b1f780614f8c971bc2c987655492fd09d243f7b3786b2b2ccf3",
    ),
}


def lane_digest(fabric) -> str:
    """sha256 over ``dlid:vl`` for every DLID of the fabric, ascending."""
    text = ",".join(f"{d}:{fabric.vl(d)}" for d in sorted(fabric.lidmap.owner))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_registered_engine_is_pinned():
    assert sorted(ENGINE_PINS) == sorted(engine_names())


@pytest.mark.parametrize("name", sorted(ENGINE_PINS))
def test_engine_tables_are_frozen(name):
    plane, want_lft, want_vls, want_lanes = ENGINE_PINS[name]
    net = PLANES[plane]()
    fabric = OpenSM(net, **sm_kwargs_for(name)).run(create_engine(name))
    assert hashlib.sha256(fabric.dump_lft().encode()).hexdigest() == want_lft
    assert fabric.num_vls == want_vls
    assert lane_digest(fabric) == want_lanes
