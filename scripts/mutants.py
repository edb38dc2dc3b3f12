#!/usr/bin/env python3
"""Mutation harness: which shipped `cqm verify` gate sees which formula term.

Each mutant is one exact-string replacement in one module of src/cqm.  For
each, the script copies src/cqm to a temporary directory, applies the
replacement there (and stops with an error unless the string occurs exactly
once), and runs scripts/residual_digest.py on the copy.  It prints the digest
lines that pass unmutated and fail mutated, or SURVIVED, saying whether the
digest moved at all.  With --tier1 it also runs the Tier-1 tests on the copy
and prints the ids of those that fail.  The working tree is never changed.

CHECKS keeps one entry per check of verify.TOLERANCES, so that every check
earns its place: the mutants that fail it, or the ROADMAP item and scenario
that would exercise it.  A run of all mutants ends with the mutants that
failed each check and says where CHECKS no longer agrees.

    python3 scripts/mutants.py [--tier1] [name ...]

One mutant takes about 6 s (2-core machine), about 40 s more with --tier1.
Mutation analysis: DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cqm"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name in src/cqm
    old: str
    new: str
    what: str


MUTANTS = (
    Mutant("ktilde_without_d0_e", "background.py",
           "inner = [[e1[i][b].derive(lam) if lam in moving else zero for b in range(3)] for i in range(3)]",
           "inner = [[e1[i][b].derive(lam) if lam in moving and lam > 0 else zero for b in range(3)] for i in range(3)]",
           "Ktilde without d_0 e_b^i; survives: every shipped scenario is static (item 6's breathing one is not)"),
    Mutant("laplacian_drift_sign", "quantum.py",
           "face / h[i] ** 2 - s * 1j * drift", "face / h[i] ** 2 + s * 1j * drift",
           "sign of the drift -i (d_i (V^i psi) + V^i d_i psi) of _laplacian_stencil"),
    Mutant("laplacian_a_squared_sign", "quantum.py",
           "/ h[i] ** 2 + _times(a_sp[i], v)", "/ h[i] ** 2 - _times(a_sp[i], v)",
           "sign of the potential -A_i V^i in _laplacian_stencil"),
    Mutant("laplacian_face_node_value", "quantum.py",
           "faces = [0.5 * (big_g[i][i] + _neighbour(big_g[i][i], i, s)) for s in (1, -1)]",
           "faces = [big_g[i][i] for s in (1, -1)]",
           "G^ii at the faces k +- 1/2 of _laplacian_stencil replaced by its node value"),
    Mutant("laplacian_mixed_node_k", "quantum.py",
           "inner = _neighbour(big_g[i][j], i, si) + _neighbour(big_g[i][j], j, sj)", "inner = 2.0 * big_g[i][j]",
           "G^ij of the mixed corners of _laplacian_stencil read at node k, not at the inner nodes; survives: "
           "every shipped metric is diagonal (item 5's anisotropic one is not)"),
    Mutant("prequantum_div_drops_xi_dsqrtg", "quantum.py",
           "div += -dfi[i] + _times(xi_sp[i], geom.dsqrtg[i], geom.sqrtg)", "div += -dfi[i]",
           "div_eta X of prequantum without its volume term X^i d_i sqrt|g| / sqrt|g|"),
    Mutant("chebyshev_coefficients_conjugated", "quantum.py",
           "coeffs = np.fft.fft(powers, axis=1)[:, :m + 1] / m",
           "coeffs = np.conj(np.fft.fft(powers, axis=1))[:, :m + 1] / m",
           "the Chebyshev coefficients a_n(s) of the Cayley map conjugated, which steps by its inverse; survives: "
           "verify runs no evolution, only Tier-1 sees it"),
    Mutant("chebyshev_recurrence_h_tilde", "quantum.py",
           "scale = 2.0 / radius if n > 1 else 1.0 / radius", "scale = 1.0 / radius",
           "the 2 H~ of the recurrence T_{n+1} = 2 H~ T_n - T_{n-1} written as H~; survives: verify runs no "
           "evolution, only Tier-1 sees it"),
    Mutant("interval_centre_sign", "quantum.py",
           "centre, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)", "centre, radius = -0.5 * (lo + hi), 0.5 * (hi - lo)",
           "the sign of the centre of the Gershgorin interval, so that H~ = (H + centre) / radius leaves [-1, 1]; "
           "survives: verify runs no evolution, only Tier-1 sees it"),
    Mutant("tail_bound_one_term_short", "quantum.py",
           "tails = rest[:, 1:top + 1] + reach[:, :top]", "tails = rest[:, 2:top + 2] + reach[:, 1:top + 1]",
           "the a priori tail of a series cut after T_N counted from T_{N+2}, so every series stops a term early; "
           "survives: verify runs no evolution, only Tier-1 sees it"),
    Mutant("y_f0_a0_sign", "hermitian.py",
           "y0 = c.f0 * a[0] + c.fbrev", "y0 = c.fbrev - c.f0 * a[0]",
           "sign of f0 A_0 in y_0 of y_coefficients"),
    Mutant("y_fj_aj_sign", "hermitian.py",
           "y0 = y0 - c.fi[j] * a[j + 1]", "y0 = y0 + c.fi[j] * a[j + 1]",
           "sign of -f^j A_j in y_0 of y_coefficients"),
    Mutant("y_f0_c0_sign", "hermitian.py",
           "acc = c.phi[k] + c.f0 * cc[0][k]", "acc = c.phi[k] - c.f0 * cc[0][k]",
           "sign of f0 C_0^a in y_a of y_coefficients"),
    Mutant("y_fj_cj_sign", "hermitian.py",
           "acc = acc - c.fi[j] * cc[j + 1][k]", "acc = acc + c.fi[j] * cc[j + 1][k]",
           "sign of -f^j C_j^a in y_a of y_coefficients"),
    Mutant("div_shift_sign", "hermitian.py",
           "add_identity(div * -0.5)", "add_identity(div * 0.5)",
           "sign of the -1/2 div_eta X shift of Y[F]"),
    Mutant("bracket_phi_0h_sign", "special.py",
           "fb_out = fb_out - (a0 * bh - b0 * ah) * phi2[0][h + 1]",
           "fb_out = fb_out + (a0 * bh - b0 * ah) * phi2[0][h + 1]",
           "sign of the Phi_0h term of _bracket_scalar"),
    Mutant("bracket_rho_sign", "special.py",
           "rho[lam][mu][k] * xa[lam] * xb[mu] * (-1.0)", "rho[lam][mu][k] * xa[lam] * xb[mu] * (1.0)",
           "sign of the curvature term rho of _bracket_spin"),
    Mutant("bracket_cross_order", "special.py",
           "spin = cross([p.truncate(order) for p in b.phi], [p.truncate(order) for p in a.phi])",
           "spin = cross([p.truncate(order) for p in a.phi], [p.truncate(order) for p in b.phi])",
           "operand order of phi' x phi in _bracket_spin"),
    Mutant("bracket_transport_sign", "special.py",
           "acc = acc - kt[lam][k][j] * phi_jets[j].truncate(order)",
           "acc = acc + kt[lam][k][j] * phi_jets[j].truncate(order)",
           "sign of the covector transport -Ktilde phi in _bracket_spin"),
    Mutant("k_joined_moment_c0k_sign", "background.py",
           "c0k = -c.mu.value * c.u0.value", "c0k = c.mu.value * c.u0.value",
           "sign of the moment sector's c0k in k_joined"),
    Mutant("k_joined_charge_c0k_factor", "background.py",
           "c0k = c.q.value * c.u0.value / (2.0 * c.m.value)", "c0k = c.q.value * c.u0.value / c.m.value",
           "factor 1/2 of the charge sector's c0k in k_joined"),
    Mutant("sqrt_det_drops_a_factor", "background.py",
           "return einv[0][0] * einv[1][1] * einv[2][2]",
           "return einv[0][0] * einv[1][1]",
           "sqrt|g| missing the Cholesky factor L_22"),
    Mutant("sqrt_det_squared", "background.py",
           "return einv[0][0] * einv[1][1] * einv[2][2]",
           "return (einv[0][0] * einv[1][1] * einv[2][2]) ** 2",
           "sqrt|g| squared (det g in its place)"),
    Mutant("metric_inv_frame_index_swapped", "background.py",
           "jet_sum(e[i][a] * e[j][a] for a in range(j, 3))",
           "jet_sum(e[i][a] * e[a][j] for a in range(j, 3))",
           "g^ij = sum_a e_a^i e_j^a; survives: equivalent on every shipped metric, which is diagonal, as its "
           "triad is (item 5's anisotropic one is not)"),
    Mutant("spin_curvature_quad_sign", "pauli.py",
           "+ quad[k]", "- quad[k]",
           "sign of the quadratic term C_lam x C_mu of spin_curvature_jets"),
    Mutant("spin_curvature_d_sign", "pauli.py",
           "acc = -cjets[mu][k].derive(lam) + cjets[lam][k].derive(mu)",
           "acc = cjets[mu][k].derive(lam) - cjets[lam][k].derive(mu)",
           "sign of the derivative terms -d_lam C_mu + d_mu C_lam of spin_curvature_jets"),
    Mutant("phi_observer_dtheta_sign", "background.py",
           "exterior_derivative(theta))", "exterior_derivative([t * -1.0 for t in theta]))",
           "Phi[o] = Phi[ref] - dtheta[o] in phi_observer; -dtheta[o] is closed too"),
    Mutant("velocity_form_quad_factor", "background.py",
           "quad * (-0.5 * c)", "quad * (-c)",
           "factor 1/2 of -1/2 g_ij v^i v^j dx^0 in velocity_form"),
    Mutant("phi_ref_spatial_sign", "background.py",
           "acc = jet_sum(g[i][j] * k[h + 1][i][0]", "acc = -jet_sum(g[i][j] * k[h + 1][i][0]",
           "sign of the spatial block of phi_ref"),
    Mutant("vertical_projection_lift_sign", "hermitian.py",
           "y.ymat(where, order) - _lift_mat", "y.ymat(where, order) + _lift_mat",
           "sign of the connection lift X^lam c_lam that vertical_projection removes"),
    Mutant("riemann_quad_sign", "background.py",
           "r = r + k0[i + 1][m][h + 1] * k0[j + 1][h][kk + 1]",
           "r = r - k0[i + 1][m][h + 1] * k0[j + 1][h][kk + 1]",
           "sign of the first K K term of riemann_lowered_spatial"),
)


@dataclass(frozen=True)
class Entry:
    """Why a check of verify.TOLERANCES is kept: the mutants that the last
    full run showed failing it, or, for what no mutant reaches, the ROADMAP
    item and scenario that would exercise it."""
    killed_by: tuple = ()
    waits_for: str = ""


# Every one-term mutant tried of kgrav's Levi-Civita slots, of the frame, of
# f_jets' mirror or of ktilde makes BackgroundJets.spin raise
# InconsistentSystem before any check reports, as a mutant of kgrav's
# mirrored assignment did for the deleted background.torsion; so these
# mutants are not in MUTANTS, and the checks they would fail wait for a
# scenario.
CHECKS = {
    "background.metricity": Entry(waits_for="item 5's anisotropic scenario; a kgrav mutant raises in spin first"),
    "background.curvature_symmetry": Entry(("riemann_quad_sign",)),
    "background.dF": Entry(waits_for="item 4's Larmor with B(t), whose F must carry the E field that d_0 A "
                                     "implies; dF checks the scenario's input, not a formula"),
    "background.frame_orthonormality": Entry(waits_for="item 5's anisotropic scenario, whose Cholesky frame has "
                                                       "the off-diagonal terms that are 0 on every shipped metric"),
    "background.ktilde_antisymmetry": Entry(waits_for="item 5: the sign of each part of ktilde, on the anisotropic "
                                                      "scenario; a ktilde mutant raises in spin first"),
    "background.domega": Entry(("velocity_form_quad_factor",)),
    "background.volume": Entry(("sqrt_det_drops_a_factor", "sqrt_det_squared")),
    "curvature.rtilde_relation": Entry(("spin_curvature_quad_sign", "spin_curvature_d_sign")),
    "curvature.rho_coupling_slots": Entry(("k_joined_moment_c0k_sign", "k_joined_charge_c0k_factor"),
                                          "item 14's neutral Stern-Gerlach scenario: at q = 0 the moment "
                                          "sector compares nothing"),
    "jacobi.residual": Entry(("bracket_rho_sign", "bracket_cross_order", "bracket_transport_sign",
                              "spin_curvature_quad_sign", "spin_curvature_d_sign")),
    "isomorphism.main_theorem": Entry(("y_f0_a0_sign", "y_fj_aj_sign", "y_f0_c0_sign", "y_fj_cj_sign",
                                       "bracket_phi_0h_sign", "bracket_rho_sign", "bracket_cross_order",
                                       "bracket_transport_sign", "k_joined_charge_c0k_factor",
                                       "spin_curvature_quad_sign", "spin_curvature_d_sign",
                                       "phi_ref_spatial_sign")),
    "isomorphism.hj_roundtrip": Entry(("vertical_projection_lift_sign",)),
    "isomorphism.pair_bracket": Entry(("spin_curvature_quad_sign", "spin_curvature_d_sign")),
    "isomorphism.eta_hermiticity": Entry(("div_shift_sign",)),
    "observer.invariant_combination": Entry(("velocity_form_quad_factor",)),
    "observer.potential_consistency": Entry(("k_joined_charge_c0k_factor", "phi_observer_dtheta_sign",
                                             "phi_ref_spatial_sign")),
    "operators.named_displays": Entry(("laplacian_drift_sign", "laplacian_a_squared_sign",
                                       "laplacian_face_node_value", "prequantum_div_drops_xi_dsqrtg",
                                       "y_f0_a0_sign", "y_f0_c0_sign")),
    "operators.generator_lock": Entry(("y_f0_a0_sign", "y_f0_c0_sign", "k_joined_moment_c0k_sign")),
    "operators.linearity": Entry(waits_for="item 2's helper: named_displays and symmetry_ratio imply it, but its "
                                           "draws come before the ratio sweeps' seeds"),
    "operators.symmetry_ratio": Entry(("prequantum_div_drops_xi_dsqrtg",)),
    "operators.bracket_homomorphism_ratio": Entry(("y_fj_aj_sign", "y_fj_cj_sign", "bracket_rho_sign",
                                                   "bracket_cross_order", "bracket_transport_sign",
                                                   "k_joined_charge_c0k_factor", "spin_curvature_d_sign",
                                                   "phi_ref_spatial_sign")),
}


def apply(m: Mutant, src: Path):
    """Replace m.old by m.new in the copy `src` of src/cqm."""
    path = src / m.module
    text = path.read_text()
    count = text.count(m.old)
    if count != 1:
        sys.exit(f"mutant {m.name}: its string occurs {count} times in {m.module}, not once: {m.old!r}")
    path.write_text(text.replace(m.old, m.new))


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src.parent), PYTHONDONTWRITEBYTECODE="1")


def digest(src: Path):
    """(lines, error) of residual_digest.py on the copy: lines keyed
    (scenario, seed, check) with (hex residual, passed); error is the last
    stderr line when the digest raised, else None."""
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "residual_digest.py")],
                         env=_env(src), capture_output=True, text=True)
    lines = {}
    for line in run.stdout.splitlines():
        scenario, seed, check, residual, passed = line.split()
        lines[scenario, seed, check] = (residual, passed == "True")
    error = run.stderr.strip().splitlines()[-1] if run.returncode else None
    return lines, error


def tier1_failures(src: Path) -> list:
    """Ids of the Tier-1 tests that fail on the copy."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                          "-o", f"pythonpath={src.parent}"],
                         cwd=ROOT, env=_env(src), capture_output=True, text=True)
    return [line.split()[1] for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--tier1", action="store_true", help="also run the Tier-1 tests on each mutant")
    args = parser.parse_args()
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        sys.exit(f"unknown mutants {unknown} (available: {', '.join(known)})")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="cqm-mutants-") as tmp:
        src = Path(tmp) / "src" / "cqm"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        base, error = digest(src)
        if error:
            sys.exit(f"the unmutated digest raised: {error}")
        killers = {name: [] for name in CHECKS}
        for m in chosen:
            shutil.rmtree(src)
            shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
            apply(m, src)
            print(f"== {m.name} ({m.module}): {m.what}")
            lines, error = digest(src)
            killed = [key for key, (_, passed) in base.items() if passed and key in lines and not lines[key][1]]
            for key in killed:
                print("  killed:", *key, lines[key][0])
                if m.name not in killers.setdefault(key[2], []):
                    killers[key[2]].append(m.name)
            if error:
                print(f"  the digest raised after {len(lines)} of {len(base)} lines:", error)
            elif not killed:
                moved = sum(lines.get(key) != value for key, value in base.items())
                print("  SURVIVED:", f"{moved} digest lines moved, none fails" if moved
                      else "the digest is byte-identical")
            if args.tier1:
                failures = tier1_failures(src)
                for test in failures:
                    print("  tier-1 fails:", test)
                if not failures:
                    print("  tier-1: all pass")
        if not args.names:
            print("== the mutants that fail each check")
            for name, found in killers.items():
                entry = CHECKS.get(name, Entry())
                waits = f"; waits for {entry.waits_for}" if entry.waits_for else ""
                print(f"  {name}: {', '.join(found) or 'none'}{waits}")
                if set(found) != set(entry.killed_by):
                    print(f"    CHECKS disagrees: {', '.join(entry.killed_by) or 'none'}")


if __name__ == "__main__":
    main()
