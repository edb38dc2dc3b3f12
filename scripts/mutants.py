#!/usr/bin/env python3
"""Mutation harness: which shipped `cqm verify` gate sees which formula term.

Each mutant is one exact-string replacement in one module of src/cqm.  For
each, the script copies src/cqm to a temporary directory, applies the
replacement there (and stops with an error unless the string occurs exactly
once), and runs scripts/residual_digest.py on the copy.  It prints the digest
lines that pass unmutated and fail mutated, or SURVIVED, saying whether the
digest moved at all.  With --tier1 it also runs the Tier-1 tests on the copy
and prints the ids of those that fail.  The working tree is never changed.

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
           "inner = [[e1[i][b].derive(lam) for b in range(3)] for i in range(3)]",
           "inner = [[e1[i][b].derive(lam) * float(lam > 0) for b in range(3)] for i in range(3)]",
           "Ktilde without d_0 e_b^i; every shipped scenario is static"),
    Mutant("laplacian_drift_sign", "quantum.py",
           "s * (w - 2j * ga)", "s * (w + 2j * ga)",
           "sign of the drift term -2i g^ij A_j of _laplacian_stencil"),
    Mutant("laplacian_a_squared_sign", "quantum.py",
           "real -= 2.0 * ginv[i][i] / h[i] ** 2 + _times(ga, a_sp[i])",
           "real -= 2.0 * ginv[i][i] / h[i] ** 2 - _times(ga, a_sp[i])",
           "sign of |A|^2 in _laplacian_stencil"),
    Mutant("laplacian_div_a_sign", "quantum.py",
           "imag -= _times(ginv[i][j], da[i][j])",
           "imag += _times(ginv[i][j], da[i][j])",
           "sign of i g^ij d_i A_j (the i div A term) in _laplacian_stencil"),
    Mutant("fold_column_offset", "quantum.py",
           "coeffs = c[:, lo:hi]", "coeffs = c[:, lo + 1:hi + 1]",
           "c-column offset of a Crank-Nicolson ring fold shifted by one term"),
    Mutant("fold_last_partial_ring", "quantum.py",
           "if j != cap - 1:  # the last ring is partial",
           "if m < cap - 1:  # the last ring is partial",
           "the last partial ring of a series left unfolded when an earlier full ring was folded"),
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
           "g^ij = sum_a e_a^i e_j^a; equivalent for a diagonal metric, whose triad is diagonal"),
)


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
        for m in chosen:
            shutil.rmtree(src)
            shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
            apply(m, src)
            print(f"== {m.name} ({m.module}): {m.what}")
            lines, error = digest(src)
            killed = [key for key, (_, passed) in base.items() if passed and key in lines and not lines[key][1]]
            for key in killed:
                print("  killed:", *key, lines[key][0])
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


if __name__ == "__main__":
    main()
