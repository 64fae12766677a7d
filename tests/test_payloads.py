"""SHA-256 pins of the deterministic ``payload`` of exact, seeded CLI calls.

A change that keeps behaviour keeps these bytes.  The digest is taken over
``json.dumps(payload, indent=2)`` of the report written with ``--out``.  The
solver commands (``solve``, ``continuous``, ``selftest``) are left out where
their digits depend on the numpy and BLAS build.  ``solve --m 1`` in diagonal
mode is pinned: it reads the exact envelope minimum and recomputes its value
through ``GridFn``, so it does no numpy arithmetic.  ``pb`` on floats is
pinned, since it is pure-Python IEEE arithmetic with no numpy.  The exact half of
``solve --grid``, the grid oracle, is pinned on its own over
``json.dumps(GridOracleResult.to_dict(), indent=2)``.
"""

import hashlib
import json

import pytest

from convmax.cli import EXIT_OK, EXIT_VIOLATION, run
from convmax.minimax import grid_oracle

PINNED = [
    ("sidon verify --d 3 --k 2", EXIT_VIOLATION,
     "57166418454577afa08fe9bd4abcbfa1a031c512fc95dd73034e70b5c27c0bac"),
    ("sidon verify --d 4 --k 2", EXIT_OK,
     "47ffbe9edf4fa532a70e18be4aab15d9f15be9f52df387b6fbb605ece4211639"),
    ("sidon verify --d 3 --k 3", EXIT_OK,
     "a6b021cb431ba22dabb721181c069648e4a60fe8e8a4e45081d346111b3534b1"),
    ("sidon verify --d 4 --k 3", EXIT_OK,
     "3c07a6f8dcb865a739090e7ed3ab5672746298074a998089a2a0e8ce63d0eb49"),
    ("sidon verify --d 4 --k 5", EXIT_OK,
     "fc8cdc7471cc9b853d472a0f6399564b2c42548cebab585116737829b6e792fc"),
    ("sidon search --d 4 --k 2 --g 2", EXIT_OK,
     "eade4f2a3c3a714346fbf00c15456257e6720a7735b6ed8d6869c9a81062ea13"),
    ("sidon search --d 4 --k 2 --g 4", EXIT_OK,
     "0c1d444d1710b48f42068963d6e6e81958a1e08a6dc60327d9e95a09f7e3334c"),
    ("sidon search --d 4 --k 3 --g 4", EXIT_OK,
     "f40118b03a1346009c1815d0a1e9e3563dcad37c3c6a184f7d753763179ce7d5"),
    ("sidon verify --d 5 --k 2 --samples 50 --seed 0", EXIT_OK,
     "a23db99e1d1ed00aa7e3757b034ee228ccae50e3ff5b7aa2ebfc76816825e75d"),
    ("sidon verify --d 5 --k 3 --samples 20 --seed 1", EXIT_OK,
     "ffd3394b339419d2b6a2a4b5d33a436a28c3a5adaff717347487ea87b4298a6a"),
    ("sidon search --d 5 --k 2 --g 4 --samples 100 --seed 1", EXIT_OK,
     "32f0452132219ec0fe2eefc47d04911fded0d4acedac7d83ada1a2ae7530d879"),
    ("pb --p 1/3,1/2,2/3", EXIT_OK,
     "747fda33a334a2b6da76d80e9507b76385a89a65ad762a78465a6a2f81b7e747"),
    ("pb --p 1/5,2/7,1/2,3/4,5/6", EXIT_OK,
     "0db540538fb2b4006ba6067711c12600b8afe817d9367c7fa65bc205f47da2be"),
    ("pb --p 0.2,0.7,0.4", EXIT_OK,
     "f4750f765660c77faa4049763c19c6fc113efa1b090e24b1099e31d0d26cf28b"),
    ("solve --k 2 --m 1", EXIT_OK,
     "5a728e9380dc3bc5c0a6e3c96fe728ee70aa97a0be2366914a0213463054cad5"),
    ("solve --k 3 --m 1", EXIT_OK,
     "58fc239e2ca954982d385bb16c8c76d3590b20aac6f84759e2dd11af258fb693"),
    ("solve --k 4 --m 1", EXIT_OK,
     "8b0062155dc37dfaf764fc1174a9f80d428aea7749b7400f2fbade8ce1ea1daa"),
    ("solve --k 7 --m 1", EXIT_OK,
     "e632b6b4cb03bd71f6198541b59b4fa4e0b0178ad6313238c2a6984e814f891e"),
    ("constant --k 3 --profile", EXIT_OK,
     "60c95a7d39507ecee6147711858523bd47638506a32df6db14c5b20e1c64e587"),
    ("constant --k 4 --d 2 --sharpness", EXIT_OK,
     "1a93993cfecb435231b0dd68bd040b97b8032891065f507e29d9b5b978d92a59"),
    ("constant --k 5 --d 3 --profile --sharpness", EXIT_OK,
     "fe4894ed64b26d92cc7267a41f24c1f4d59343f067ec733548359bbdaa8e1a5f"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED, ids=[argv for argv, _, _ in PINNED])
def test_payload_digest(tmp_path, argv, code, digest):
    out = tmp_path / "report.json"
    assert run(argv.split() + ["--out", str(out)]) == code
    payload = json.loads(out.read_text())["payload"]
    assert hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest() == digest


#: The exact grid-oracle cases of the benchmark, keyed (k, m, n, diagonal).
PINNED_ORACLE = [
    ((2, 2, 12, False), "24e1914d3e4d3a8b2a92ae0049ad1f58ee7f81e9720f6b51fe6cec79eb59f2ae"),
    ((2, 3, 6, False), "a51f3c8d9f53f3f144ec1a329382227f6ed22c595270aee6f5ebe5bdb77dc032"),
    ((2, 4, 4, False), "18ce6dcc072e9a32a92ffd6f7521e4048563910cf7345d29cbeb40425bb4c50e"),
    ((3, 2, 6, False), "100f11cce95d3d3eeaa64905d0c32698521261f4c0adfc180df0a9e725390b1a"),
    ((2, 4, 20, True), "0c0ff5048927a59d34946ea9e47986a4d4c8260c3fb54853ff27c8a233d721f1"),
    ((2, 2, 6, True), "ce9112e3088e435ac73fa4aef044986b319ff2ed5b69792222a6f16740170073"),
]

#: Edges of the integer sweep: a non-palindromic tied diagonal minimiser, a
#: k = 3 multiset sweep, and two grids with n^k > 2^63 - 1 (Python-int numerators).
PINNED_ORACLE += [
    ((2, 3, 4, True), "88a88bea3f14f858d6ba300e67fc49900a7eba3e18dc805a22bf605fcfc73f3f"),
    ((3, 1, 8, False), "70ecc1a9650e8c65b7fb7473f66f888922a8c36d781332c99af153765ddb6b77"),
    ((40, 1, 3, True), "f31caf38aa31d036f4d69219c22b05f12aa813e414b2d4c1af6340aac3885949"),
    ((63, 1, 2, False), "5899176cd28071cf74cc72fc76c7218fc09129fb882ee830c6459d9139ed20b7"),
]


@pytest.mark.parametrize("case,digest", PINNED_ORACLE, ids=[str(c) for c, _ in PINNED_ORACLE])
def test_grid_oracle_digest(case, digest):
    k, m, n, diagonal = case
    text = json.dumps(grid_oracle(k, m, n, diagonal).to_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
