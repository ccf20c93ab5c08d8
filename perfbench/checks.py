"""Output checkers for the benchmark, written with numpy alone.

None of these functions calls dsmkit: every check is a property the
method must have (residuals, structure, cone membership, norm bounds,
orthogonality to the tangent space of a linear solution set) or a
comparison against data the benchmark built itself.  A failed check
raises ``CheckError`` naming the condition.
"""

from __future__ import annotations

import numpy as np

#: relative tolerance for residuals, structure and norm identities
TOL = 1e-8

SESQUILINEAR = {"hermitian": 1, "skew-hermitian": -1}
BILINEAR = {"symmetric": 1, "skew-symmetric": -1}
LINEAR = {"unstructured", *SESQUILINEAR, *BILINEAR}


class CheckError(AssertionError):
    """An output of the program failed a benchmark check."""


def require(cond, name: str, detail: str = "") -> None:
    if not cond:
        raise CheckError(f"{name}: {detail}" if detail else name)


def fro(a) -> float:
    return float(np.linalg.norm(a))


def rel_residual(a, v, target) -> float:
    """||a v - target|| relative to ||a|| ||v|| + ||target||."""
    scale = fro(a) * fro(v) + fro(target)
    return fro(a @ v - target) / scale if scale > 0 else 0.0


def herm(a):
    return (a + a.conj().T) / 2.0


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# structure and cones


def structure_dev(h1, family: str) -> float:
    """Relative deviation of a square block from its family's symmetry."""
    s = max(fro(h1), 1e-300)
    if family in SESQUILINEAR:
        return fro(h1 - SESQUILINEAR[family] * h1.conj().T) / s
    if family in BILINEAR:
        return fro(h1 - BILINEAR[family] * h1.T) / s
    if family in ("psd", "nsd"):
        return fro(h1 - h1.conj().T) / s
    return 0.0


def cone_margin(h1, family: str) -> float:
    """Signed extreme eigenvalue, relative to ||h1||; >= -TOL inside the cone.

    psd/nsd use the Hermitian block itself, dissipative/anti-dissipative
    its Hermitian part.
    """
    if family not in ("psd", "nsd", "dissipative", "anti-dissipative"):
        return 0.0
    eigs = np.linalg.eigvalsh(herm(h1))
    s = max(fro(h1), 1e-300)
    if family in ("psd", "dissipative"):
        return float(eigs[0]) / s
    return float(-eigs[-1]) / s


def check_block(h1, family: str, where: str = "H1") -> None:
    dev = structure_dev(h1, family)
    require(dev <= TOL, f"{where}_structure", f"{family} deviation {dev:.3e}")
    margin = cone_margin(h1, family)
    require(margin >= -TOL, f"{where}_cone", f"{family} extreme eigenvalue {margin:.3e}")


# ---------------------------------------------------------------------------
# tangent spaces of the linear solution sets


def _kernel_projector(v):
    v = v.reshape(-1)
    return np.eye(v.shape[0], dtype=complex) - np.outer(v, v.conj()) / np.vdot(v, v).real


def random_in_family(rng, family: str, n: int):
    a = crandn(rng, n, n)
    if family in SESQUILINEAR:
        return a + SESQUILINEAR[family] * a.conj().T
    if family in BILINEAR:
        return a + BILINEAR[family] * a.T
    return a


def tangent_square(rng, family: str, v):
    """Random K in the family with K* v = 0 (hence K v = 0 for the Hermitian kinds)."""
    a = random_in_family(rng, family, v.shape[0])
    if family in BILINEAR:
        q = _kernel_projector(v.conj())  # K* v = conj(K conj(v)) for symmetric K
        return q.T @ a @ q
    p = _kernel_projector(v)
    if family == "unstructured":
        return a @ p
    return p @ a @ p


def tangent_one_sided(rng, family: str, x):
    """Random K in the family with K x = 0."""
    a = random_in_family(rng, family, x.shape[0])
    p = _kernel_projector(x)
    if family == "unstructured":
        return a @ p
    if family in BILINEAR:
        return p.T @ a @ p
    return p @ a @ p


def tangent_two_block(rng, family: str, x1, x2, z):
    """Random [K1 K2] with K1 in the family, K x = 0 and K* z = 0."""
    k1 = tangent_square(rng, family, z)
    pz = _kernel_projector(z)
    px2 = _kernel_projector(x2)
    r = crandn(rng, z.shape[0], x2.shape[0])
    k2 = -np.outer(k1 @ x1, x2.conj()) / np.vdot(x2, x2).real + pz @ r @ px2
    return np.hstack([k1, k2])


def check_orthogonal(h, k, name: str = "minimal") -> None:
    """A minimizer over an affine set is orthogonal to its tangent space."""
    inner = float(np.real(np.vdot(k, h)))
    scale = fro(h) * fro(k)
    require(abs(inner) <= 1e-7 * scale, name, f"<H, K> = {inner:.3e} against {scale:.3e}")


# ---------------------------------------------------------------------------
# mapping solvers


def check_mapping(case, out, rng) -> None:
    """Check one mapping-solver output against the case that generated it.

    ``case`` carries the data, ``family``, ``feasible`` (the verdict the
    construction implies), ``true_norm`` (norm of the feasible point the
    data were built from) and, for doubly structured cases, ``n``.
    ``out`` carries ``feasible``, ``H``, ``lower``, ``upper``, ``exact``
    and ``kind``.
    """
    require(out["feasible"] == case["feasible"], "verdict",
            f"solver says {out['feasible']}, construction says {case['feasible']}")
    if not case["feasible"]:
        return
    h = out["H"]
    x, y, z, w = case["x"], case["y"], case.get("z"), case.get("w")
    family = case["family"]
    r1 = rel_residual(h, x, y)
    require(r1 <= TOL, "residual_Hx", f"{r1:.3e}")
    if z is not None:
        r2 = rel_residual(h.conj().T, z, w)
        require(r2 <= TOL, "residual_H*z", f"{r2:.3e}")
    n = case.get("n", h.shape[0])
    if case["kind"] != "two-sided":
        check_block(h[:, :n], family)
    if "adjoint" in case:
        m_mat, eps, bil = case["adjoint"]
        inner = h[:, :n].T if bil else h[:, :n].conj().T
        adj = m_mat.conj().T @ inner @ m_mat
        dev = fro(adj - eps * h[:, :n]) / max(fro(h[:, :n]), 1e-300)
        require(dev <= TOL, "H1_algebra", f"adjoint deviation {dev:.3e}")

    lower, upper = out["lower"], out["upper"]
    hn = fro(h)
    require(abs(upper - hn) <= TOL * hn, "norm_upper", f"{upper!r} != ||H||_F {hn!r}")
    require(lower <= upper * (1 + 1e-12), "norm_order", f"lower {lower!r} > upper {upper!r}")
    floor = fro(y) / fro(x)
    if z is not None:
        floor = max(floor, fro(w) / fro(z))
    require(upper >= floor * (1 - 1e-12), "norm_floor", f"upper {upper!r} < {floor!r}")
    # the generating matrix is feasible, so no lower bound (nor a claimed minimum) exceeds it
    true_norm = case["true_norm"]
    require(lower <= true_norm * (1 + TOL), "lower_vs_feasible", f"{lower!r} > {true_norm!r}")
    if out["exact"]:
        require(upper <= true_norm * (1 + TOL), "minimum_vs_feasible", f"{upper!r} > {true_norm!r}")
        if family in LINEAR and "adjoint" not in case:
            if case["kind"] == "one-sided":
                k = tangent_one_sided(rng, family, x)
            elif case["kind"] == "two-sided":
                k = _kernel_projector(z) @ crandn(rng, z.shape[0], x.shape[0]) @ _kernel_projector(x)
            else:
                k = tangent_two_block(rng, family, x[:n], x[n:], z)
            check_orthogonal(h, k)


# ---------------------------------------------------------------------------
# port-Hamiltonian pencils


def pencil_residual(P, dJ, dR, dE, dB, lam, u1, u2, u3) -> float:
    """Relative norm of (L - dL)(lam) u, built blockwise from the pencil's definition.

    L(lam) u = [ (J - R + lam E) u2 + B u3 ;  -(J + R + lam E) u1 ;  B* u1 + S u3 ]
    for J skew-Hermitian, R and E Hermitian.
    """
    J, R, E, B, S = P["J"] - dJ, P["R"] - dR, P["E"] - dE, P["B"] - dB, P["S"]
    r = np.concatenate([
        (J - R + lam * E) @ u2 + B @ u3,
        -(J + R + lam * E) @ u1,
        B.conj().T @ u1 + S @ u3,
    ])
    scale = (fro(P["J"]) + fro(P["R"]) + abs(lam) * fro(P["E"]) + fro(P["B"]) + fro(P["S"])) * (
        fro(u1) + fro(u2) + fro(u3)
    )
    return fro(r) / scale


def split_square_block(h1, blocks: str, lam):
    """Split a solved square block into (dJ, dR, dE) of least stacked norm.

    The Hermitian part goes to -dR; the skew part goes to dJ and lam dE
    with weights 1/(1+|lam|^2) and conj(lam)/(1+|lam|^2) when both are
    selected, and wholly to the one selected otherwise.
    """
    n = h1.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    hh = herm(h1)
    skew = h1 - hh
    dR = -hh if "R" in blocks else zero
    if "R" not in blocks:
        require(fro(hh) <= TOL * max(fro(h1), 1e-300), "square_block_skew",
                "Hermitian part without an R block")
    if "J" in blocks and "E" in blocks:
        wt = 1.0 / (1.0 + abs(lam) ** 2)
        return wt * skew, dR, np.conj(lam) * wt * skew
    if "J" in blocks:
        return skew, dR, zero
    if "E" in blocks:
        return zero, dR, skew / lam
    require(fro(skew) <= TOL * max(fro(h1), 1e-300), "square_block_herm",
            "skew part without a J or E block")
    return zero, dR, zero


def check_perturbation(P, dJ, dR, dE, dB, lam, u, blocks: str, variant: str, tol=TOL) -> float:
    """Check a pencil perturbation and return its stacked norm."""
    n = P["J"].shape[0]
    u1, u2, u3 = u[:n], u[n:2 * n], u[2 * n:]
    res = pencil_residual(P, dJ, dR, dE, dB, lam, u1, u2, u3)
    require(res <= tol, "pencil_residual", f"(L - dL)(lam) u relative {res:.3e}")
    for name, blk, fam in (("dJ", dJ, "skew-hermitian"), ("dR", dR, "hermitian"), ("dE", dE, "hermitian")):
        if fro(blk) > 0:
            require(structure_dev(blk, fam) <= TOL, f"{name}_structure", fam)
    for name, blk in (("dJ", dJ), ("dR", dR), ("dE", dE), ("dB", dB)):
        require(name[1] in blocks or fro(blk) == 0.0, f"{name}_unselected", "nonzero block not selected")
    if variant == "sd" and fro(dR) > 0:
        require(cone_margin(dR, "psd") >= -TOL, "dR_psd", "dR is not positive semidefinite")
    return float(np.sqrt(fro(dJ) ** 2 + fro(dR) ** 2 + fro(dE) ** 2 + fro(dB) ** 2))


def check_bounds(lower, upper, name="eta") -> None:
    require(np.isfinite(lower) and np.isfinite(upper), f"{name}_finite", f"[{lower}, {upper}]")
    require(0 <= lower <= upper * (1 + 1e-12), f"{name}_order", f"lower {lower!r} > upper {upper!r}")


def check_rebuilt_row(P, h1, h2, lam, u, blocks: str, variant: str, lower, upper, exact) -> None:
    """Rebuild the perturbation from the solved blocks and check it bounds eta."""
    check_bounds(lower, upper)
    dJ, dR, dE = split_square_block(h1, blocks, lam)
    dB = h2 if "B" in blocks else np.zeros_like(P["B"])
    norm = check_perturbation(P, dJ, dR, dE, dB, lam, u, blocks, variant)
    require(norm >= lower * (1 - TOL), "rebuilt_vs_lower", f"{norm!r} < eta_lower {lower!r}")
    if exact:
        require(abs(norm - upper) <= TOL * upper, "rebuilt_vs_upper", f"{norm!r} != eta_upper {upper!r}")


def check_rows(rows, lams) -> None:
    """Every row of a sweep: no error, finite bounds, lower <= upper."""
    require(len(rows) == len(lams), "row_count", f"{len(rows)} rows for {len(lams)} lambdas")
    for row, lam in zip(rows, lams):
        require(row["error"] == "", "row_error", row["error"])
        require(row["finite"], "row_finite", f"lambda {lam}")
        require(abs(complex(row["lam"]) - lam) <= 1e-15 * abs(lam), "row_lambda", str(row["lam"]))
        check_bounds(row["eta_lower"], row["eta_upper"])


def check_scaling(base, scaled, factor, name) -> None:
    """eta(scaled input) == factor * eta(input) for both ends of the bracket."""
    for end in (0, 1):
        want = factor * base[end]
        require(abs(scaled[end] - want) <= 1e-7 * want, name,
                f"{scaled[end]!r} against {want!r}")


def check_pencil_blocks(P) -> None:
    """J skew-Hermitian, R PSD, E Hermitian, S Hermitian positive definite."""
    check_block(P["J"], "skew-hermitian", "J")
    check_block(P["R"], "psd", "R")
    check_block(P["E"], "hermitian", "E")
    check_block(P["S"], "psd", "S")
    require(np.linalg.eigvalsh(herm(P["S"]))[0] > 0, "S_definite")
