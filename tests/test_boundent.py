import dataclasses
import json
import sys

import numpy as np
import pytest

from prodbasis import boundent, verify
from prodbasis.basis import ProductBasis, ProductState
from prodbasis.boundent import (
    DensityMatrix,
    RangeVerdict,
    is_ppt,
    range_criterion_report,
    upb_density_state,
)
from prodbasis.cli import main
from prodbasis.config import TOLERANCES
from prodbasis.errors import CompleteBasisInput, DimensionMismatch, NonOrthonormalInput
from prodbasis.families import cartesian_basis, gen_tiles1, gen_tiles2
from prodbasis.io import basis_to_payload, complex_to_json, load_basis, save_basis
from prodbasis.linalg import hermitian_part, partial_transpose
from prodbasis.verify import Verdict, check_upb, complement_projector
from test_io_cli import CLI_FILES


def bell_density():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(bell, bell.conj()), 2, 2)


def test_density_state_gentiles1_4():
    rho = upb_density_state(gen_tiles1(4))
    w = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(w > 1e-9) == 7
    assert np.all((np.abs(w) < 1e-10) | (np.abs(w - 1 / 7) < 1e-10))
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12


def test_density_state_gentiles2_34():
    rho = upb_density_state(gen_tiles2(3, 4))
    w = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(w > 1e-9) == 5
    assert np.all((np.abs(w) < 1e-10) | (np.abs(w - 0.2) < 1e-10))


def test_density_state_rejects_complete_basis():
    with pytest.raises(CompleteBasisInput):
        upb_density_state(cartesian_basis(2, 2))


def test_density_state_checks_orthonormality_before_completeness():
    st = cartesian_basis(2, 2).states
    with pytest.raises(NonOrthonormalInput):
        upb_density_state(ProductBasis(2, 2, (st[0], st[0], st[1], st[2])))


def test_density_matrix_rejects_nan():
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(np.full((4, 4), np.nan, dtype=complex), 2, 2)


def test_density_matrix_rejects_a_wrong_shape_or_trace():
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.eye(3) / 3, 2, 2)
    with pytest.raises(ValueError, match="trace differs from 1"):
        DensityMatrix(np.eye(4) / 2, 2, 2)


@pytest.mark.parametrize("matrix,d_a,d_b", [(np.eye(6) / 6, -2, -3), (np.zeros((0, 0)), 0, 3),
                                            (np.eye(2) / 2, 2, 0)])
def test_density_matrix_rejects_local_dimensions_below_one(matrix, d_a, d_b):
    with pytest.raises(DimensionMismatch, match=r"must be at least 1$"):
        DensityMatrix(matrix, d_a, d_b)


def test_density_state_commutes_with_complement():
    basis = gen_tiles2(3, 4)
    rho = upb_density_state(basis)
    q = complement_projector(basis)
    comm = rho.matrix @ q - q @ rho.matrix
    assert np.max(np.abs(comm)) <= 1e-10


def test_is_ppt_product_state():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    v = np.kron(a, b)
    rho = DensityMatrix(np.outer(v, v.conj()), 2, 3)
    ok, w_min = is_ppt(rho)
    assert ok and w_min >= -1e-10


def test_is_ppt_maximally_entangled():
    ok, w_min = is_ppt(bell_density())
    assert not ok
    assert abs(w_min - (-0.5)) <= 1e-10


@pytest.mark.parametrize("make", [lambda: gen_tiles1(4), lambda: gen_tiles2(3, 4)])
def test_upb_complement_state_is_ppt(make):
    rho = upb_density_state(make())
    ok, w_min = is_ppt(rho)
    assert ok, w_min


def noisy_matrices():
    """(matrix, d_a, d_b): complement states with anti-Hermitian noise of 1e-12 added."""
    rng = np.random.default_rng(3)
    for basis in (gen_tiles1(4), gen_tiles2(3, 4), gen_tiles1(6)):
        m = upb_density_state(basis).matrix
        x = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        yield m + 1e-12 * (x - x.conj().T), basis.d_a, basis.d_b


def test_public_density_matrix_is_exactly_hermitian():
    # the input is Hermitian only within 1e-10; the stored matrix is its
    # Hermitian part, read-only
    for m, d_a, d_b in noisy_matrices():
        rho = DensityMatrix(m, d_a, d_b)
        assert not np.array_equal(m, m.conj().T)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert rho.matrix.tobytes() == hermitian_part(m).tobytes()
        assert not rho.matrix.flags.writeable


def test_is_ppt_is_the_eigenvalue_of_the_hermitian_part_of_the_partial_transpose():
    # is_ppt takes no Hermitian part, and gives the bits of the two-step
    # eigvalsh(hermitian_part(partial_transpose(m)))[0] on the matrix m given:
    # the state's own matrix for complement states, the noisy input for
    # public states
    states = [upb_density_state(make()) for make in (lambda: gen_tiles1(6), lambda: gen_tiles1(12),
                                                     lambda: gen_tiles2(3, 4), lambda: gen_tiles2(6, 10))]
    cases = [(rho, rho.matrix) for rho in states]
    cases += [(DensityMatrix(m, d_a, d_b), m) for m, d_a, d_b in noisy_matrices()]
    for rho, m in cases:
        want = float(np.linalg.eigvalsh(hermitian_part(partial_transpose(m, rho.d_a, rho.d_b)))[0])
        got = is_ppt(rho)
        assert got == (want >= -TOLERANCES.ppt, want)
        assert got[1].hex() == want.hex()


def test_partial_transpose_of_density_keeps_trace():
    rho = upb_density_state(gen_tiles1(4))
    pt = partial_transpose(rho.matrix, rho.d_a, rho.d_b)
    assert abs(np.trace(pt).real - 1.0) <= 1e-10


def test_range_criterion_on_upb_state():
    rho = upb_density_state(gen_tiles1(6))
    report = range_criterion_report(rho, restarts=60, seed=5)
    assert report.verdict is RangeVerdict.ENTANGLED
    assert report.range_rank == 11
    assert report.max_product_overlap < 1 - 1e-3


def test_range_criterion_reads_upb_margin(monkeypatch):
    # the range maximum of g1(6) with 20 restarts, seed 0 lies between 1 - 0.05 and 1 - 1e-3
    rho = upb_density_state(gen_tiles1(6))
    assert range_criterion_report(rho, restarts=20, seed=0).verdict is RangeVerdict.ENTANGLED
    # the verdict is verify.overlap_verdict's, which reads the margin there
    monkeypatch.setattr(verify, "TOLERANCES", dataclasses.replace(TOLERANCES, upb_margin=0.05))
    report = range_criterion_report(rho, restarts=20, seed=0)
    assert report.verdict is RangeVerdict.INCONCLUSIVE
    assert 1 - 0.05 <= report.max_product_overlap < 1 - 1e-3


def test_range_criterion_inconclusive_on_separable_mixture():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5
    m[3, 3] = 0.5
    rho = DensityMatrix(m, 2, 2)
    report = range_criterion_report(rho, restarts=20, seed=0)
    assert report.verdict is RangeVerdict.INCONCLUSIVE
    assert report.max_product_overlap >= 1 - 1e-9


def test_range_criterion_inconclusive_on_pure_product():
    v = np.eye(4, dtype=complex)[2]
    rho = DensityMatrix(np.outer(v, v.conj()), 2, 2)
    report = range_criterion_report(rho, restarts=10, seed=0)
    assert report.verdict is RangeVerdict.INCONCLUSIVE
    assert report.max_product_overlap >= 1 - 1e-9


def drop_last(basis):
    return ProductBasis(basis.d_a, basis.d_b, basis.states[:-1], family=basis.family)


def non_orthonormal(n_states):
    """Cartesian 2x2 states with state 0 repeated, ``n_states`` in all."""
    st = cartesian_basis(2, 2).states
    return ProductBasis(2, 2, (st[0],) + st[:n_states - 1])


BOUNDENT_FILES = {
    "g1_4": lambda: gen_tiles1(4),
    "g1_6": lambda: gen_tiles1(6),
    "g2_3x4": lambda: gen_tiles2(3, 4),
    "g1_8_minus1": lambda: drop_last(gen_tiles1(8)),       # extendible: exit 5
    "g2_4x6_minus1": lambda: drop_last(gen_tiles2(4, 6)),  # extendible: exit 5
    "cart_3x3": lambda: cartesian_basis(3, 3),             # complete: exit 5
    "non_orthonormal": lambda: non_orthonormal(2),         # exit 1
    "non_orthonormal_full": lambda: non_orthonormal(4),    # dA*dB states, still exit 1
}


def two_seesaw_boundent(path, seed, out) -> int:
    """``boundent PATH --seed SEED --out OUT`` as it was run before the pipeline merge.

    ``check_upb`` decides unextendibility with a see-saw on the complement
    projector, and the range criterion runs a second see-saw on the range of
    the complement state.
    """
    basis = load_basis(path)
    try:
        report = check_upb(basis, restarts=100, seed=seed)
    except NonOrthonormalInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.verdict in (Verdict.COMPLETE_BASIS, Verdict.EXTENDIBLE):
        print(f"error: basis verdict is {report.verdict.value}; "
              "the complement state needs an unextendible basis", file=sys.stderr)
        return 5
    if report.verdict is Verdict.INCONCLUSIVE:
        print("error: unextendibility check was inconclusive", file=sys.stderr)
        return 4
    rho = upb_density_state(basis)
    ppt_ok, min_pt = is_ppt(rho)
    range_report = range_criterion_report(rho, restarts=100, seed=seed)
    payload = {
        "dims": [basis.d_a, basis.d_b],
        "states": len(basis),
        "density": {"trace": 1.0, "rank": basis.dim - len(basis)},
        "ppt": {"is_ppt": bool(ppt_ok), "min_partial_transpose_eigenvalue": min_pt},
        "range_criterion": {
            "verdict": range_report.verdict.value,
            "range_rank": range_report.range_rank,
            "max_product_overlap": range_report.max_product_overlap,
            "capped_restarts": range_report.capped_restarts,
        },
        "seed": seed,
    }
    print(json.dumps(payload, indent=2))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"dims": [rho.d_a, rho.d_b], "matrix": complex_to_json(rho.matrix)}, fh, indent=2)
        fh.write("\n")
    print(f"wrote density matrix to {out}", file=sys.stderr)
    return 0


def run_boundent(run, path, seed, out, capsys):
    code = run(path, seed, out)
    captured = capsys.readouterr()
    density = out.read_bytes() if out.exists() else None
    return code, captured.out, captured.err.replace(str(out), "OUT"), density


def cli_boundent(path, seed, out):
    return main(["boundent", str(path), "--seed", str(seed), "--out", str(out)])


@pytest.mark.parametrize("name", BOUNDENT_FILES)
def test_cli_boundent_matches_two_seesaw_sequence(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    save_basis(BOUNDENT_FILES[name](), path)
    for seed in range(4):
        new = run_boundent(cli_boundent, path, seed, tmp_path / f"new{seed}.json", capsys)
        old = run_boundent(two_seesaw_boundent, path, seed, tmp_path / f"old{seed}.json", capsys)
        assert new == old
    expected = {"g1_8_minus1": 5, "g2_4x6_minus1": 5, "cart_3x3": 5,
                "non_orthonormal": 1, "non_orthonormal_full": 1}.get(name, 0)
    assert new[0] == expected


def near_complete_11x11():
    """120 states whose norms pass every input check but whose complement,
    of rank 1, has trace 1 - 2e-10: dividing by the rank misses trace 1."""
    cart = cartesian_basis(11, 11)
    return ProductBasis(11, 11, tuple(ProductState(s.a * (1 + 9e-13), s.b) for s in cart.states[:-1]))


def test_density_state_has_trace_one_for_accumulated_norm_errors():
    basis = near_complete_11x11()
    assert abs(np.trace(complement_projector(basis)).real - 1.0) > 1e-10
    rho = upb_density_state(basis)
    assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12


def test_cli_boundent_rejects_unnormalizable_complement_state(tmp_path, capsys):
    # the rank-1 complement of the near-complete set is the product state
    # |10>|10>, so the set is extendible (exit 5), not a malformed state
    path = tmp_path / "near_complete.json"
    save_basis(near_complete_11x11(), path)
    assert main(["boundent", str(path), "--restarts", "5"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: basis verdict is Extendible; "
                            "the complement state needs an unextendible basis\n")


def tilted_cartesian(delta, d_a=3, d_b=3):
    """Cartesian d_a x d_b minus its last state, with A factors eye(d_a) + delta (ones - eye), normalised.

    Their pairwise overlaps are about 2 delta, and on each full B block the
    d_a of them add up to a Gram eigenvalue of about 1 + 2 (d_a - 1) delta,
    so I - V V^dag has an eigenvalue of about -2 (d_a - 1) delta.
    """
    a = np.eye(d_a, dtype=complex) + delta * (np.ones((d_a, d_a)) - np.eye(d_a))
    a /= np.linalg.norm(a, axis=0)
    b = np.eye(d_b, dtype=complex)
    states = tuple(ProductState(a[:, i], b[j]) for i in range(d_a) for j in range(d_b))[:-1]
    return ProductBasis(d_a, d_b, states)


def basis_text(make):
    return lambda: json.dumps(basis_to_payload(make()))


# Every input of the agreement test below, as file text, with verify's exit
# code: the boundent files, two tilted Cartesian sets whose pairwise overlaps
# of 9e-11 pass the orthonormality check, and every malformed file of
# test_io_cli.py (exit 1)
AGREEMENT_FILES = {
    **{name: basis_text(make) for name, make in BOUNDENT_FILES.items()},
    # complement eigenvalue about -1.8e-10, inside operator_interval: the
    # complement is a product state, so the set is extendible
    "tilted_3x3": basis_text(lambda: tilted_cartesian(4.5e-11)),
    # complement eigenvalue about -1.14e-8, outside operator_interval
    "tilted_128x2": basis_text(lambda: tilted_cartesian(4.5e-11, 128, 2)),
    **{f"malformed_{name}": text for name, text in list(CLI_FILES.items())[3:]},
}
VERIFY_EXITS = {"g1_4": 0, "g1_6": 0, "g2_3x4": 0, "g1_8_minus1": 3, "g2_4x6_minus1": 3, "cart_3x3": 0,
                "tilted_3x3": 3}
# verify's exit code and verdict -> boundent's exit code
AGREEING_EXITS = {(0, "UPB_Numeric"): 0, (0, "CompleteBasis"): 5, (3, "Extendible"): 5, (4, "Inconclusive"): 4}


@pytest.mark.parametrize("name", AGREEMENT_FILES)
def test_cli_verify_and_boundent_accept_the_same_inputs(tmp_path, capsys, name):
    # one front end decides the input of both commands: an input that verify
    # rejects, boundent rejects with the same one-line message, and an input
    # that verify certifies, boundent reads with the same verdict
    path = tmp_path / f"{name}.json"
    path.write_text(AGREEMENT_FILES[name]())
    code = main(["verify", str(path), "--format", "json"])
    verified = capsys.readouterr()
    assert code == VERIFY_EXITS.get(name, 1)
    bound = main(["boundent", str(path)])
    bounded = capsys.readouterr()
    if code == 1:
        assert bound == 1 and verified.out == bounded.out == ""
        assert bounded.err == verified.err and verified.err.count("\n") == 1
        if name == "tilted_128x2":
            assert verified.err == "error: spectrum [-1.143e-08, 1.000e+00] outside [0, 1]\n"
    else:
        assert bound == AGREEING_EXITS[code, json.loads(verified.out)["report"]["verdict"]]


def test_range_criterion_and_seesaw_need_a_restart():
    rho = upb_density_state(gen_tiles2(3, 4))
    with pytest.raises(ValueError, match="at least one restart"):
        range_criterion_report(rho, restarts=0)
    with pytest.raises(ValueError, match="at least one restart"):
        verify.seesaw_max_product_overlap(complement_projector(gen_tiles2(3, 4)), 3, 4, restarts=0)


def test_cli_boundent_decomposes_the_state_once(tmp_path, capsys, monkeypatch):
    # the state, its range cut and the see-saw's operators come from the
    # tiles of g2(3,4) (from one QR for another basis), so the one D x D
    # solve is the eigvalsh of the partial transpose
    dim = 12
    calls = []

    def counted(name, fn):
        def wrapper(m, *args, **kwargs):
            if np.shape(m) == (dim, dim):
                calls.append(name)
            return fn(m, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    path = tmp_path / "g2.json"
    save_basis(gen_tiles2(3, 4), path)
    assert main(["boundent", str(path), "--restarts", "10", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["ppt"]["is_ppt"] is True
    assert calls == ["eigvalsh"]


def test_cli_verify_forms_one_gram_matrix_and_calls_no_eigensolver(tmp_path, capsys, monkeypatch):
    # the complement comes from the tiles of g2(3,4) and g1(6) and from one
    # QR for g2(4,6) minus one state, picked by one call of
    # verify._complement, and its spectrum check from the Gershgorin bound
    # of the Gram matrix
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    original = verify._complement

    def complement(basis):
        c = original(basis)
        calls.append(type(c).__name__)
        return c

    monkeypatch.setattr(verify, "gram_matrix", counted("gram", verify.gram_matrix))
    monkeypatch.setattr(verify, "_complement", complement)  # its one binding, which the front end calls
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    path = tmp_path / "g2.json"
    save_basis(gen_tiles2(3, 4), path)
    assert main(["verify", str(path), "--restarts", "10", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "UPB_Numeric"
    assert calls == ["gram", "_TileContractions"]
    for basis, code, verdict, form in ((gen_tiles1(6), 0, "UPB_Numeric", "_TileContractions"),
                                       (drop_last(gen_tiles2(4, 6)), 3, "Extendible", "_FactorContractions")):
        calls.clear()
        save_basis(basis, path)
        assert main(["verify", str(path), "--restarts", "10", "--format", "json"]) == code
        assert json.loads(capsys.readouterr().out)["report"]["verdict"] == verdict
        assert calls == ["gram", form]


def test_cli_boundent_runs_one_gram_and_one_seesaw(tmp_path, capsys, monkeypatch):
    # and picks the complement once: from the tiles of g2(3,4) and g1(6),
    # from one QR for g2(4,6) minus one state (extendible: exit 5)
    calls = {"gram": 0, "seesaw": 0, "complement": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "gram_matrix", counted("gram", verify.gram_matrix))
    seesaw = counted("seesaw", verify._seesaw)
    complement = counted("complement", verify._complement)
    monkeypatch.setattr(verify, "_complement", complement)  # called by the front end of both pipelines
    for module in (verify, boundent):  # boundent imports the see-saw engine by name
        monkeypatch.setattr(module, "_seesaw", seesaw)
    path = tmp_path / "g2.json"
    save_basis(gen_tiles2(3, 4), path)
    assert main(["boundent", str(path), "--restarts", "10", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["range_criterion"]["range_rank"] == 5
    assert calls == {"gram": 1, "seesaw": 1, "complement": 1}
    for basis, code in ((gen_tiles1(6), 0), (drop_last(gen_tiles2(4, 6)), 5)):
        calls.update(gram=0, seesaw=0, complement=0)
        save_basis(basis, path)
        assert main(["boundent", str(path), "--restarts", "10", "--seed", "0"]) == code
        out = capsys.readouterr().out
        if code == 0:
            assert json.loads(out)["range_criterion"]["range_rank"] == basis.dim - len(basis)
        assert calls == {"gram": 1, "seesaw": 1, "complement": 1}


def test_cli_verify_rejects_a_complement_spectrum_below_zero(tmp_path, capsys):
    # overlaps of 1e-8 pass --tol 1e-7, but the complement I - V V^dag has
    # the eigenvalue -2e-8, outside [0, 1] by more than operator_interval
    path = tmp_path / "tilted.json"
    save_basis(tilted_cartesian(5e-9), path)
    assert main(["verify", str(path), "--tol", "1e-7", "--restarts", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spectrum [-2.000e-08, 1.000e+00] outside [0, 1]\n"


def test_cli_verify_accepts_a_complement_spectrum_within_the_slack(tmp_path, capsys):
    # eigenvalue -8e-9 lies within operator_interval = 1e-8; the complement,
    # a_perp (x) |2> for the a_perp orthogonal to a_0 and a_1, is a product
    # state, so the set is extendible
    path = tmp_path / "tilted.json"
    save_basis(tilted_cartesian(2e-9), path)
    assert main(["verify", str(path), "--tol", "1e-7", "--restarts", "5"]) == 3
    assert "verdict: Extendible" in capsys.readouterr().out


@pytest.mark.parametrize("name,basis", [("g1_6", gen_tiles1(6)), ("g2_3x4", gen_tiles2(3, 4)),
                                        ("g2_6x10", gen_tiles2(6, 10))])
def test_cli_verify_and_boundent_print_the_same_maximum(tmp_path, capsys, name, basis):
    # both see-saws run on the tile form of the complement, so the maxima
    # agree bit for bit
    path = tmp_path / f"{name}.json"
    save_basis(basis, path)
    for seed in (0, 7):
        assert main(["verify", str(path), "--format", "json", "--seed", str(seed)]) == 0
        verified = json.loads(capsys.readouterr().out)["report"]["max_product_overlap"]
        assert main(["boundent", str(path), "--seed", str(seed)]) == 0
        assert json.loads(capsys.readouterr().out)["range_criterion"]["max_product_overlap"] == verified


def test_complement_state_is_the_normalised_complement_projector():
    # the state built from the tiles (the two families) or the QR factor
    # (the tilted set) against I - V V^dag divided by its trace, and the
    # projector of its kept range operand against the definition: a rank-k
    # projector on whose range the state is 1/k
    for basis in (gen_tiles1(6), gen_tiles2(3, 4), tilted_cartesian(2e-11)):
        rho = upb_density_state(basis)
        q = complement_projector(basis)
        assert np.max(np.abs(rho.matrix - q / np.trace(q).real)) <= 1e-9
        p = rho._range.projector()
        k = basis.dim - len(basis)
        assert rho._range.rank == k and p.shape == (basis.dim, basis.dim)
        assert abs(np.trace(p).real - k) <= 1e-12
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(rho.matrix @ p - p / k)) <= 1e-12
