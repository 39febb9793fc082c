"""Self-verification suite: oracle cross-checks behind `rotorspec verify`.

Each check returns (ok, detail) and is independent of the code paths it
validates wherever an independent route exists: the integer ladder,
pairing weights and generator squares the Hamiltonian reads against Jp,
Jm and J3 of the polynomial route (differential operators applied to the
basis polynomials, over the integers and Fractions), closed-form spectra
against block diagonalization, the curvature closed forms against the
structure-constant oracle, the asymmetric levels against a standard
ladder-matrix construction, diagonalized by cyclic Jacobi, that shares
nothing with the polynomial engine or the QL sweep.  `harmonic dimensions`
checks on every block, in integers, the identities the spectrum path
takes on trust, the null-space basis among them.  The random samples come
from random.Random with fixed seeds; everything here is pure Python.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from random import Random

from .classical_em import (
    PatternField,
    _cross,
    angular_velocity,
    decoupling_check,
    recombine,
    split_covector,
    split_field,
    split_velocity,
    unsplit_field,
    velocities_from_angular,
    weighted_inner,
)
from .geometry import DegeneracyClass, ParticleSystem, _dot, _jacobi_eigh, canonicalize
from .inertia import (
    curvature_asymmetric,
    curvature_degenerate,
    curvature_spherical,
    curvature_symmetric,
    inertia_tensor,
    principal_momenta,
    scalar_curvature_oracle,
)
from .levels import EXACT_DEGREE_MAX, band_record, band_species, degree_band, eigenvalues
from .polyalg import (
    antipodal_sign,
    apply_jminus,
    apply_jplus,
    casimir_matrix,
    generator_matrix,
    hamiltonian_matrix,
    harmonic_basis,
    harmonic_basis_r3,
    laplacian_r3,
    mat_commutator,
    mat_equal,
    mat_mul,
    pairing_weights,
    sphere_laplacian_r3,
    vector_field_matrix,
)
from .polyalg import rational_linalg
from .polyalg.operators import AXES, _generator_square, _ladder
from .polyalg.rational_linalg import mat_add, mat_scale, mat_sub, mat_zero
from .polyalg.spaces import _sector_monomials
from .quantum_structures import BundleKind, parity_projects
from .spectra import (
    degenerate_spectrum,
    diagonalized_spectrum,
    group_energies,
    j_squared_spectrum,
    monopole_spectrum,
    spherical_spectrum,
    symmetric_spectrum,
)


def wigner_asymmetric_levels(j2: int, i1, i2, i3, hbar0=1.0) -> list[float]:
    """Independent asymmetric-top levels for total degree d = 2j, ascending.

    Builds J+ + J- and J+ - J- from the textbook ladder formula for J+ in
    the |j, m> basis (no polynomial machinery), J- the transpose of J+, and
    the real H = (hbar0/2) (Jx^2/I1 + Jy^2/I2 + Jz^2/I3) from Jx^2 = (J+ +
    J-)^2 / 4 and Jy^2 = -(J+ - J-)^2 / 4, and diagonalizes it by cyclic
    Jacobi.
    """
    j = j2 / 2.0
    m = [-j + t for t in range(j2 + 1)]
    up = [math.sqrt(j * (j + 1) - x * (x + 1)) for x in m[:-1]]  # J+ at (t + 1, t)
    plus = _band_rows(j2 + 1, lower=up, upper=up, offset=1)
    minus = _band_rows(j2 + 1, lower=up, upper=[-x for x in up], offset=1)
    squares = zip(mat_mul(plus, plus), mat_mul(minus, minus), _band_rows(j2 + 1, [x * x for x in m]))
    c1, c2, c3 = (float(hbar0) / (2.0 * float(mom)) for mom in (i1, i2, i3))
    h = [[c1 * x / 4 - c2 * y / 4 + c3 * z for x, y, z in zip(*rows)] for rows in squares]
    return sorted(_jacobi_eigh(h)[0])


def _rel_err(a, b) -> float:
    a, b = float(a), float(b)
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _adjoint(a, b, weights) -> bool:
    """w_m a_mn = w_n b_nm for all m, n: the real matrix b is the adjoint of
    a under the pairing <e_m, e_n> = w_m delta_mn, exactly, in ints."""
    dim, num, den = len(a), [w.numerator for w in weights], [w.denominator for w in weights]
    return all(
        num[m] * den[n] * a[m][n] == num[n] * den[m] * b[n][m]
        for m in range(dim)
        for n in range(dim)
        if a[m][n] or b[n][m]
    )


def _band_rows(dim: int, diag=(), lower=(), upper=(), offset=2):
    """Dense dim x dim rows of a band: diag at (a, a), lower at
    (a + offset, a), upper at (a, a + offset) and zero elsewhere; offset 2
    is the layout of HamiltonianBand."""
    rows = mat_zero(dim, dim)
    for a, x in enumerate(diag):
        rows[a][a] = x
    for a, (lo, up) in enumerate(zip(lower, upper)):
        rows[a + offset][a], rows[a][a + offset] = lo, up
    return rows


def _species_rows(species):
    """Dense rows of the block-diagonal matrix of (diag, products, count)
    species, count blocks each: tridiagonals with the products above the
    diagonal and ones below, so their determinants are the continuants."""
    diag, lower, upper = [], [], []
    for entries, products, count in species:
        for _ in range(count):
            diag += entries
            lower += [*(1 for _ in products), 0]
            upper += [*products, 0]
    return _band_rows(len(diag), diag, lower[:-1], upper[:-1], offset=1)


# --- individual checks -------------------------------------------------------


def check_su2_commutators(d_max: int = 8):
    """On all blocks with p + q <= d_max, exactly, in the Chevalley basis:
    each of Jp, Jm and J3 of the polynomial route (the differential operator
    applied to the basis polynomials) equals, entry by entry, the one built
    from the integer ladder (so J3 is diag(l) and 2 J3 integral); Jp is
    adjoint to Jm under the pairing weights; in ints, [2 J3, Jp] = 2 Jp,
    [2 J3, Jm] = -2 Jm and [Jp, Jm] = 2 J3 (_su2_relations).  J1 = (Jp +
    Jm) / 2 and J2 = (Jp - Jm) / (2i) is a change of basis invertible over
    Q(i), so these hold exactly when J_a is self-adjoint, L_a = -i J_a
    skew-adjoint, [J_a, J_b] = i J_c and [L_a, L_b] = L_c."""
    for d in range(d_max + 1):
        for p in range(d + 1):
            q = d - p
            jp, jm, j3 = mats = [vector_field_matrix(axis, p, q) for axis in AXES]
            for name, axis, m in zip(("Jp", "Jm", "J3"), AXES, mats):
                if not mat_equal(m, generator_matrix(axis, p, q)):
                    return False, f"{name} differs from the integer ladder on H^({p},{q})"
            if not _adjoint(jp, jm, pairing_weights(p, q)):
                return False, f"Jm is not the adjoint of Jp (J1, J2 not self-adjoint) under the pairing weights on H^({p},{q})"
            for name, got, want in _su2_relations(jp, jm, j3):
                if not mat_equal(got, want):
                    return False, f"{name} on H^({p},{q})"
    return True, f"exact commutators on all blocks with p+q <= {d_max}"


def _su2_relations(jp, jm, j3):
    """(name, got, want) of each su2 relation in ints, on 2 J3 (J3 half-integral)."""
    two_j3 = [[int(2 * x) for x in row] for row in j3]
    return (
        ("[J3, Jp] != Jp", mat_commutator(two_j3, jp), mat_scale(jp, 2)),
        ("[J3, Jm] != -Jm", mat_commutator(two_j3, jm), mat_scale(jm, -2)),
        ("[Jp, Jm] != 2 J3", mat_commutator(jp, jm), two_j3),
    )


def _is_quarter(rows, fourfold) -> bool:
    """rows == fourfold / 4 entry by entry, in ints: 4 x.numerator == y x.denominator."""
    return all(4 * x.numerator == y * x.denominator for rx, ry in zip(rows, fourfold) for x, y in zip(rx, ry))


def check_casimir(d_max: int = 8):
    """Casimir Jm Jp + J3^2 + J3 = j(j+1) Id = d(d+2)/4 Id exactly (so it
    commutes with every matrix); the square record the Hamiltonian reads is
    J1^2 = (Jp + Jm)^2 / 4 as (D, L, U), J2^2 = -(Jp - Jm)^2 / 4 as (D, -L,
    -U) and J3^2 as diag(l^2), exactly; in ints (_is_quarter), 4 C against
    d(d+2) Id and 4 J1^2, 4 J2^2 against (Jp + Jm)^2, -(Jp - Jm)^2."""
    for d in range(d_max + 1):
        scalar = _band_rows(d + 1, [d * (d + 2)] * (d + 1))
        for p in range(d + 1):
            q = d - p
            if not _is_quarter(casimir_matrix(p, q), scalar):
                return False, f"Casimir not {Fraction(d * (d + 2), 4)} Id on H^({p},{q})"
            jp, jm, j3 = [vector_field_matrix(axis, p, q) for axis in AXES]
            diag, lower, upper, l_squared = _generator_square(p, q)
            plus, minus = mat_add(jp, jm), mat_sub(jp, jm)
            if not (
                _is_quarter(_band_rows(d + 1, diag, lower, upper), mat_mul(plus, plus))
                and _is_quarter(_band_rows(d + 1, diag, [-x for x in lower], [-x for x in upper]), mat_scale(mat_mul(minus, minus), -1))
                and mat_mul(j3, j3) == _band_rows(d + 1, l_squared)
            ):
                return False, f"square record differs from J1^2, J2^2 or J3^2 on H^({p},{q})"
    return True, f"Casimir scalars j(j+1) = d(d+2)/4 exact for d <= {d_max}"


def check_x3_spectrum(d_max: int = 8):
    """J3 of the polynomial route is diagonal with eigenvalues -j..j in
    integer steps, exactly."""
    for d in range(d_max + 1):
        expect = [Fraction(2 * t - d, 2) for t in range(d + 1)]
        for p in range(d + 1):
            q = d - p
            if not mat_equal(vector_field_matrix(3, p, q), _band_rows(d + 1, expect)):
                return False, f"J3 is not diag({', '.join(map(str, expect))}) on H^({p},{q})"
    return True, f"J3 spectrum is -j..j in integer steps for all d <= {d_max}"


# (I1, I2, I3, hbar0, k, rho) of the band comparison in check_dimensions:
# asymmetric, rational, with k rho != 0
_BAND_CHECK = (1, 2, Fraction(7, 2), 1, Fraction(5, 21), 1)


def _dimension_certificate(p: int, q: int):
    """None when the weight sectors prove dim H^{p,q} = p+q+1, else the
    failure, in O(m) per sector of m monomials (a, b, c, d): its listing
    (_sector_monomials) starts at bidegree (p, q) and weight 2l, steps by
    z1 zb1 -> z2 zb2 while a c != 0, and the sizes add up to the (p+1)(q+1)
    monomials of the bidegree.  So each sector holds every monomial of its
    weight, and no step leads out of it: b d = 0 on the first, a c = 0 on
    the last.  The Laplacian 4 (d_z1 d_zb1 + d_z2 d_zb2) sends monomial i
    to rows i (4 a c) and i - 1 (4 b d), so its leading (m-1) x (m-1)
    block is upper bidiagonal with a nonzero diagonal, and each of the
    p+q+1 sectors holds one harmonic line."""
    count = 0
    for two_l in range(-p - q, p + q + 1, 2):
        monos = _sector_monomials(p, q, two_l)
        if not monos:
            return f"weight sector 2l = {two_l} of H^({p},{q}) is empty"
        a, b, c, d = first = monos[0]
        if (
            (a + b, c + d, a - b - c + d) != (p, q, two_l)
            or min(first) < 0
            or any(not a * c or nxt != (a - 1, b + 1, c - 1, d + 1) for (a, b, c, d), nxt in zip(monos, monos[1:]))
        ):
            return f"weight sector 2l = {two_l} of H^({p},{q}) is not a z1 zb1 -> z2 zb2 chain from a monomial of its weight"
        count += len(monos)
    if count != (p + 1) * (q + 1):
        return f"the weight sectors of H^({p},{q}) hold {count} of its {(p + 1) * (q + 1)} monomials"
    return None


def check_dimensions(d_max: int = 12):
    """dim H^{p,q} = p+q+1, so the degree-d total is (d+1)^2, certified on
    every block from its weight sectors (_dimension_certificate), each one
    harmonic line.  On every block, what the spectrum path takes on trust,
    each proved once and in integers: each sector vector is harmonic
    (checked when the basis reads `sectors`) with coefficients of gcd 1 and
    a positive first one, which makes it the null-space basis vector; the
    ladder closes on the basis polynomials, Jp b_k = alpha_k b_(k+1) and Jm
    b_(k+1) = beta_k b_k, zero at the ends; the pairing weights are
    positive with w_(k+1) alpha_k = w_k beta_k, which makes every
    Hamiltonian band self-adjoint; the square record has the diagonals D
    and l^2 and the products L * U of the representative block H^(d//2,
    d-d//2), so every block has its band for every input.  That block's
    exact band on the rational asymmetric triple _BAND_CHECK is S_d
    (degree_band, its integers over their denominator) plus k rho: the
    same diagonal, and the products g^2 P_m P_(m+1) equal lower * upper.
    For d <= EXACT_DEGREE_MAX the species of that band, which the spectrum
    path solves in closed form, factor its dense characteristic
    polynomial, and every exact level of S_d plus k rho is a root of it."""
    record, shift = band_record(*_BAND_CHECK[:4]), _BAND_CHECK[4] * _BAND_CHECK[5]
    for d in range(d_max + 1):
        r = d // 2
        rep_band = hamiltonian_matrix(harmonic_basis(r, d - r), *_BAND_CHECK)
        rep_products = [lo * up for lo, up in zip(rep_band.lower, rep_band.upper)]
        num, t, den = band = degree_band(d, record)
        diag, g = tuple(Fraction(x, den) for x in num), Fraction(t, den)
        degree_products = [g * g * (m + 1) * (d - m) * (m + 2) * (d - m - 1) for m in range(d - 1)]
        if tuple(x + shift for x in diag) != rep_band.diag or degree_products != rep_products:
            return False, f"S_{d} plus k rho differs from the band of H^({r},{d - r}) in its diagonal or products"
        if d <= EXACT_DEGREE_MAX:
            # charpoly is read from its module when called, so this module
            # still imports where that name is missing (rotorbench/selftest.py
            # deletes it to test an absent span target)
            charpoly = rational_linalg.charpoly
            coeffs = charpoly(_band_rows(d + 1, rep_band.diag, rep_band.lower, rep_band.upper))
            if charpoly(_species_rows(band_species(rep_band.diag, rep_products, d))) != coeffs:
                return False, f"species of the band of H^({r},{d - r}) do not multiply to its characteristic polynomial"
            levels = [v + shift for v, exact in eigenvalues(d, *band) if exact]
            if any(sum(c * v**i for i, c in enumerate(coeffs)) for v in levels):
                return False, f"an exact level of the band of H^({r},{d - r}) is not a root of its characteristic polynomial"
        rep_square = _square_comparands(r, d - r)
        for p in range(d + 1):
            q = d - p
            failure = _dimension_certificate(p, q)
            if failure:
                return False, failure
            space = harmonic_basis(p, q)
            sectors = space.sectors
            for k, sector in enumerate(sectors):
                if math.gcd(*(c for _, c in sector)) != 1 or sector[0][1] < 0:
                    return False, f"sector vector {k} of H^({p},{q}) does not have content 1 and a positive first coefficient"
            alpha, beta = _ladder(p, q)
            ups = [*({m: a * c for m, c in sector} for a, sector in zip(alpha, sectors[1:])), {}]
            downs = [{}, *({m: x * c for m, c in sector} for x, sector in zip(beta, sectors))]
            for k, b in enumerate(space.basis):
                if apply_jplus(b).terms != ups[k] or apply_jminus(b).terms != downs[k]:
                    return False, f"ladder closure fails on basis element {k} of H^({p},{q})"
            w = pairing_weights(p, q)
            for k, (a, b, w0, w1) in enumerate(zip(alpha, beta, w, w[1:])):  # in ints
                if w1.numerator <= 0 or w1.numerator * w0.denominator * a != w0.numerator * w1.denominator * b:
                    return False, f"pairing weight {k + 1} of H^({p},{q}) is not positive or not adjoint"
            if p != r and _square_comparands(p, q) != rep_square:
                return False, f"band of H^({p},{q}) differs from that of H^({r},{d - r}) in its diagonal or products"
    return True, f"dimensions p+q+1 and (d+1)^2 verified for d <= {d_max}"


def _square_comparands(p: int, q: int):
    """The diagonals D, l^2 and the products L * U of a square record."""
    diag, lower, upper, l_squared = _generator_square(p, q)
    return diag, l_squared, [lo * up for lo, up in zip(lower, upper)]


def check_parity_selection(d_max: int = 12):
    """Antipodal parity is (-1)^d on every block and matches the bundle
    projectability rule; exactly one bundle admits each degree."""
    for d in range(d_max + 1):
        for p in range(d + 1):
            space = harmonic_basis(p, d - p)
            for b in space.basis:
                if antipodal_sign(b) != (-1) ** d:
                    return False, f"antipodal sign wrong on H^({p},{d - p})"
        plus = parity_projects(d, BundleKind.PLUS)
        minus = parity_projects(d, BundleKind.MINUS)
        if plus == minus:
            return False, f"degree {d} projects to both or neither bundle"
        if plus != (d % 2 == 0):
            return False, f"degree {d} parity rule broken"
    return True, f"parity selection exact for d <= {d_max}"


def check_spherical_spectrum(j_max=6):
    """Closed-form spherical levels for I = 1 against block diagonalization
    on both bundles, relative error <= 1e-10; trivial-bundle energies are
    j(j+1)/2 with multiplicity (2j+1)^2."""
    expected_plus = [Fraction(j * (j + 1), 2) for j in range(int(j_max) + 1)]
    for bundle in (BundleKind.PLUS, BundleKind.MINUS):
        closed = spherical_spectrum(1, bundle, k=0, hbar0=1, j_max=j_max)
        brute = diagonalized_spectrum(1, 1, 1, bundle, k=0, hbar0=1, j_max=j_max)
        if bundle is BundleKind.PLUS:
            got = [ln.energy for ln in closed.lines]
            if got != expected_plus:
                return False, f"spherical energies {got} != {expected_plus}"
            mults = [ln.multiplicity for ln in closed.lines]
            if mults != [(2 * j + 1) ** 2 for j in range(int(j_max) + 1)]:
                return False, f"spherical multiplicities wrong: {mults}"
        for ln in closed.lines:
            d = int(2 * ln.j)
            blines = brute.lines_for_degree(d)
            if len(blines) != 1:
                return False, f"diagonalization split degree {d} into {len(blines)}"
            if _rel_err(blines[0].energy, ln.energy) > 1e-10:
                return False, f"spherical mismatch at j = {ln.j}"
            if blines[0].multiplicity != ln.multiplicity:
                return False, f"spherical multiplicity mismatch at j = {ln.j}"
    return True, f"spherical closed form == diagonalization for j <= {j_max}, both bundles"


def check_half_integer_branch(j_max=6):
    """Non-trivial bundle: E_{1/2} = 3/8 with multiplicity 4; only half-odd
    j appear on MINUS, only integer j on PLUS; bundles partition all d."""
    minus = spherical_spectrum(1, BundleKind.MINUS, k=0, hbar0=1, j_max=j_max)
    first = minus.lines[0]
    if first.j != Fraction(1, 2) or first.energy != Fraction(3, 8) or first.multiplicity != 4:
        return False, f"lowest MINUS line wrong: {first}"
    if any(ln.j.denominator == 1 for ln in minus.lines):
        return False, "integer j appeared on the MINUS bundle"
    plus = spherical_spectrum(1, BundleKind.PLUS, k=0, hbar0=1, j_max=j_max)
    if any(ln.j.denominator != 1 for ln in plus.lines):
        return False, "half-odd j appeared on the PLUS bundle"
    degrees = sorted(int(2 * ln.j) for ln in plus.lines) + sorted(
        int(2 * ln.j) for ln in minus.lines
    )
    if sorted(degrees) != list(range(2 * int(j_max) + 1)):
        return False, "bundle union does not cover every degree exactly once"
    return True, "E_{1/2} = 3/8 (mult 4); bundle parity selection holds"


def check_symmetric_spectrum(j_max=6):
    """Symmetric closed form vs diagonalization, momenta (2, 1), for all j
    <= j_max on both bundles; multiplicity pattern (2j+1) at l = 0 and
    2(2j+1) otherwise; exact arithmetical-degeneracy grouping under
    rational inputs, E(3,3) = E(4,1) at j_max 4 or more."""
    i_pair, i_axis = 2, 1
    for bundle in (BundleKind.PLUS, BundleKind.MINUS):
        closed = symmetric_spectrum(i_pair, i_axis, bundle, k=0, hbar0=1, j_max=j_max)
        brute = diagonalized_spectrum(
            i_pair, i_pair, i_axis, bundle, k=0, hbar0=1, j_max=j_max
        )
        for ln in closed.lines:
            want = int(2 * ln.j + 1) if ln.l == 0 else 2 * int(2 * ln.j + 1)
            if ln.multiplicity != want:
                return False, f"multiplicity at (j,l)=({ln.j},{ln.l}) is {ln.multiplicity}"
        for d in range(2 * int(Fraction(j_max)) + 1):
            cl = [ln for ln in closed.lines if int(2 * ln.j) == d]
            bl = [ln for ln in brute.lines if int(2 * ln.j) == d]
            if not cl and not bl:
                continue
            groups = group_energies([(ln.energy, ln) for ln in cl], eps_spec=1e-10)
            if len(groups) != len(bl):
                return False, f"degree {d}: {len(groups)} closed groups vs {len(bl)} blocks"
            for (ce, group), bln in zip(groups, bl):
                cm = sum(ln.multiplicity for ln in group)
                if _rel_err(ce, bln.energy) > 1e-10 or cm != bln.multiplicity:
                    return False, f"degree {d} mismatch at E = {ce}"
        if not all(isinstance(ln.energy, Fraction) for ln in closed.lines):
            return False, "closed-form symmetric energies not exact for rational input"
    merged = symmetric_spectrum(i_pair, i_axis, BundleKind.PLUS, j_max=max(4, int(j_max)))
    groups = merged.group_by_energy()
    collision = [g for g in groups if len(g[2]) > 1 and len({ln.j for ln in g[2]}) > 1]
    if not collision:
        return False, "expected arithmetical degeneracy (e.g. E(3,3) = E(4,1)) not found"
    return True, f"symmetric (I_pair={i_pair}, I_axis={i_axis}) verified for j <= {j_max}"


def check_asymmetric_j1():
    """Momenta (1, 2, 3): the j = 1 triad is exactly {5/12, 2/3, 3/4}, each
    a simple level of the degree-2 band, so a line of multiplicity 3 over
    the three degree-2 blocks; the ladder oracle agrees to 1e-10; all
    within 1 s (a bound, so the detail is the same from run to run)."""
    start = time.monotonic()
    spec = diagonalized_spectrum(1, 2, 3, BundleKind.PLUS, k=0, hbar0=1, j_max=1)
    lines = spec.lines_for_degree(2)
    got = sorted(ln.energy for ln in lines)
    want = [Fraction(5, 12), Fraction(2, 3), Fraction(3, 4)]
    if got != want:
        return False, f"j=1 triad {got} != {want}"
    if any(ln.multiplicity != 3 for ln in lines):
        return False, "j=1 multiplicities are not all 3"
    for ln in lines:
        if not isinstance(ln.energy, Fraction):
            return False, "j=1 eigenvalues were not extracted exactly"
        blocks = {(p, q) for (p, q, _) in ln.eigensections}
        if blocks != {(2, 0), (1, 1), (0, 2)}:
            return False, f"eigensections reference wrong blocks: {blocks}"
    oracle = sorted({round(x, 12) for x in wigner_asymmetric_levels(2, 1, 2, 3)})
    if len(oracle) != 3 or any(_rel_err(a, b) > 1e-10 for a, b in zip(oracle, got)):
        return False, f"ladder oracle disagrees: {oracle}"
    alt = [0.5 * (1 / 1 + 1 / 2), 0.5 * (1 / 1 + 1 / 3), 0.5 * (1 / 2 + 1 / 3)]
    if any(_rel_err(a, b) > 1e-12 for a, b in zip(sorted(alt), got)):
        return False, "classical pair-sum values disagree"
    elapsed = time.monotonic() - start
    if elapsed > 1.0:
        return False, f"asymmetric j=1 took {elapsed:.2f} s (> 1 s)"
    return True, "triad 5/12, 2/3, 3/4 exact (mult 3 each) within 1 s"


def check_asymmetric_oracle(j_max=4):
    """Brute-force spectrum vs the independent ladder-matrix oracle for the
    asymmetric triple (1.0, 2.0, 3.5), all degrees to 2*j_max, both bundles."""
    i1, i2, i3 = 1.0, 2.0, 3.5
    for bundle in (BundleKind.PLUS, BundleKind.MINUS):
        spec = diagonalized_spectrum(i1, i2, i3, bundle, k=0, hbar0=1, j_max=j_max)
        for d in range(2 * int(j_max) + 1):
            lines = spec.lines_for_degree(d)
            if not lines:
                continue
            got = []
            for ln in lines:
                got.extend([float(ln.energy)] * (ln.multiplicity // (d + 1)))
            oracle = wigner_asymmetric_levels(d, i1, i2, i3)
            if len(got) != d + 1:
                return False, f"degree {d}: multiplicity pattern not (d+1)-fold"
            for a, b in zip(sorted(got), oracle):
                if _rel_err(a, b) > 1e-10:
                    return False, f"degree {d}: {a} vs oracle {b}"
    return True, f"ladder oracle matches diagonalization for d <= {2 * int(j_max)}"


def check_degenerate_case(l_max=8):
    """S^2 levels l(l+1)/2I with multiplicity 2l+1, validated by the exact
    surface Laplacian on the degree-l harmonic bases; documents the
    divergence from the (2j+1)^2 count, which contradicts the sphere
    dimension formula 2l+1 in dimension n = 2."""
    for ell in range(l_max + 1):
        space = harmonic_basis_r3(ell)
        if space.dim != 2 * ell + 1:
            return False, f"dim H_{ell}(R^3) = {space.dim} != {2 * ell + 1}"
        for b in space.basis:
            if laplacian_r3(b):
                return False, f"degree-{ell} basis element not harmonic"
            if sphere_laplacian_r3(b, ell) != b.scale(-ell * (ell + 1)):
                return False, f"surface Laplacian eigenvalue wrong at degree {ell}"
    spec = degenerate_spectrum(Fraction(1), k=0, hbar0=1, l_max=l_max)
    for ell, ln in enumerate(spec.lines):
        if ln.energy != Fraction(ell * (ell + 1), 2) or ln.multiplicity != 2 * ell + 1:
            return False, f"degenerate line at l = {ell} wrong: {ln}"
        if ell >= 1 and ln.multiplicity == (2 * ell + 1) ** 2:
            return False, "multiplicity follows the squared count, not the sphere count"
    return True, f"S^2 levels l(l+1)/(2I), multiplicity 2l+1, exact for l <= {l_max}"


def check_curvature():
    """The four closed forms vs the structure-constant oracle to 1e-10
    relative: 1000 random asymmetric, spherical and symmetric triples
    (one fixed seed), and the degenerate case as the collapsing-axis limit;
    the spherical limit of the asymmetric formula is checked exactly."""
    # each row of six draws is the asymmetric triple, the spherical value
    # and (pair, axis)
    rng = Random(20240521)
    for _ in range(1000):
        *triple, i_sph, pair, axis = _uniforms(rng, 0.1, 50.0, 6)
        i1, i2, i3 = sorted(triple)
        if _rel_err(curvature_asymmetric(i1, i2, i3), scalar_curvature_oracle(i1, i2, i3)) > 1e-10:
            return False, f"asymmetric curvature mismatch at {(i1, i2, i3)}"
        if _rel_err(curvature_spherical(i_sph), scalar_curvature_oracle(i_sph, i_sph, i_sph)) > 1e-10:
            return False, f"spherical curvature mismatch at I = {i_sph}"
        if _rel_err(
            curvature_symmetric(pair, axis), scalar_curvature_oracle(axis, pair, pair)
        ) > 1e-10:
            return False, f"symmetric curvature mismatch at {(pair, axis)}"
    # spherical limit of the asymmetric form, exact and numeric
    for i_val in (Fraction(1), Fraction(2, 3), Fraction(7, 2)):
        if curvature_asymmetric(i_val, i_val, i_val) != curvature_spherical(i_val):
            return False, "asymmetric formula does not collapse to 3h/(2I) exactly"
    # degenerate case: the symmetric form at axis momentum zero is the
    # degenerate form exactly, and it tracks the oracle down the collapse
    for i_val in (Fraction(1, 2), Fraction(1), Fraction(3)):
        if curvature_symmetric(i_val, 0) != curvature_degenerate(i_val):
            return False, "symmetric form at zero axis momentum != degenerate form"
        eps_axis = 1e-4 * float(i_val)
        oracle = scalar_curvature_oracle(eps_axis, float(i_val), float(i_val))
        if _rel_err(curvature_symmetric(float(i_val), eps_axis), oracle) > 1e-10:
            return False, f"oracle strays from the symmetric form near collapse, I = {i_val}"
    return True, "all four closed forms agree with the oracle over 1000 triples"


def check_monopole():
    """nu = 0 reduces termwise to the free symmetric spectrum; nu != 0
    breaks the +-l symmetry by exactly 2 nu |q| l / I_axis."""
    free = symmetric_spectrum(2, 1, BundleKind.PLUS, k=0, hbar0=1, j_max=3)
    mono0 = monopole_spectrum(2, 1, BundleKind.PLUS, nu=0, q_center_norm=Fraction(3, 2), j_max=3)
    for ln in free.lines:
        matching = [
            m for m in mono0.lines if m.j == ln.j and m.l is not None and abs(m.l) == ln.l
        ]
        if sum(m.multiplicity for m in matching) != ln.multiplicity:
            return False, f"nu=0 multiplicity mismatch at (j,l)=({ln.j},{ln.l})"
        if any(m.energy != ln.energy for m in matching):
            return False, f"nu=0 energy mismatch at (j,l)=({ln.j},{ln.l})"
    nu, qn, i_axis = Fraction(2), Fraction(3, 2), Fraction(1)
    mono = monopole_spectrum(2, i_axis, BundleKind.MINUS, nu=nu, q_center_norm=qn, j_max=Fraction(5, 2))
    by_jl = {(ln.j, ln.l): ln.energy for ln in mono.lines}
    for (j, l), e in by_jl.items():
        if l <= 0:
            continue
        gap = by_jl[(j, -l)] - e
        if gap != 2 * nu * qn * l / i_axis:
            return False, f"l-asymmetry at (j,l)=({j},{l}) is {gap}"
    return True, "monopole reduces at nu=0 and splits +-l by 2 nu |q| l / I_axis exactly"


def check_j_squared():
    """hbar0^2 j(j+1) with multiplicity (2j+1)^2 on both bundles, and on
    PLUS also at hbar0 = 2/3, where a spectrum linear in hbar0 differs."""
    for hbar0, j_max, want in ((1, 2, [(0, 1), (2, 9), (6, 25)]), (Fraction(2, 3), 1, [(0, 1), (Fraction(8, 9), 9)])):
        got = [(ln.energy, ln.multiplicity) for ln in j_squared_spectrum(BundleKind.PLUS, j_max, hbar0).lines]
        if got != want:
            return False, f"PLUS j^2 lines wrong: {got}"
    minus = j_squared_spectrum(BundleKind.MINUS, j_max=Fraction(1, 2))
    if [(ln.energy, ln.multiplicity) for ln in minus.lines] != [(Fraction(3, 4), 4)]:
        return False, "MINUS j^2 line wrong"
    return True, "squared angular momentum values and multiplicities verified"


def _uniforms(rng, low, high, n):
    return [rng.uniform(low, high) for _ in range(n)]


def _vectors(rng, low, high, n):
    return [_uniforms(rng, low, high, 3) for _ in range(n)]


def _random_body(rng, n=5):
    return ParticleSystem(
        masses=_uniforms(rng, 0.5, 4.0, n),
        charges=_uniforms(rng, -2.0, 2.0, n),
        positions=_vectors(rng, -3.0, 3.0, n),
    )


def _max_gap(a, b) -> float:
    """The largest entrywise difference of two lists of 3-vectors."""
    return max(abs(x - y) for u, v in zip(a, b) for x, y in zip(u, v))


def check_geometry_layer():
    """Splitting orthogonality and reconstruction, covector splitting,
    angular-velocity round-trip (including the degenerate axis-orthogonal
    representative), all to 1e-12 absolute, on seeded random bodies."""
    trials, rng = 50, Random(777)
    for _ in range(trials):
        system = _random_body(rng)
        config = canonicalize(system)
        vel = _vectors(rng, -2.0, 2.0, config.n)
        split = split_velocity(config, vel)
        if _max_gap(recombine(split), vel) > 1e-12:
            return False, "velocity recombination failed"
        other = split_velocity(config, _vectors(rng, -2.0, 2.0, config.n))
        if abs(weighted_inner(config, [split.center] * config.n, other.relative)) > 1e-12:
            return False, "weighted orthogonality failed"
        cov = split_covector(config, _vectors(rng, -2.0, 2.0, config.n))
        if max(abs(sum(col)) for col in zip(*cov.relative)) > 1e-12:
            return False, "covector relative parts do not sum to zero"
        omega = _uniforms(rng, -1.5, 1.5, 3)
        back = angular_velocity(config, velocities_from_angular(config, omega))
        if _max_gap([back], [omega]) > 1e-9:
            return False, "angular velocity round-trip failed"
    # degenerate body: the axis component of omega is quotiented away
    system = ParticleSystem(
        masses=[1.0, 1.0], charges=[0.0, 0.0], positions=[[1.5, 0, 0], [-1.5, 0, 0]]
    )
    config = canonicalize(system)
    back = angular_velocity(config, velocities_from_angular(config, (0.7, -0.3, 1.1)))
    if _max_gap([back], [(0.0, -0.3, 1.1)]) > 1e-12:
        return False, "degenerate representative is not axis-orthogonal"
    return True, f"splitting and round-trip invariants hold over {trials} random bodies"


def check_em_layer():
    """Field-splitting additivity and antisymmetry, the dipole component
    values, and mixed-component vanishing under proportional charges, all to
    1e-12 absolute, on seeded random bodies."""
    trials, rng = 40, Random(4242)
    for _ in range(trials):
        system = _random_body(rng, n=4)
        config = canonicalize(system)
        fld = PatternField.uniform(*_vectors(rng, -1, 1, 2))
        v = _vectors(rng, -1, 1, 2)
        w = _vectors(rng, -1, 1, 2)
        v0, w0 = _uniforms(rng, -1, 1, 2)
        parts = split_field(system, config, fld, v, w, v0, w0)
        total = unsplit_field(system, config, fld, v, w, v0, w0)
        if abs(parts.total - total) > 1e-12:
            return False, "additivity of the field splitting failed"
        swapped = split_field(system, config, fld, w, v, w0, v0)
        for x, y in zip((parts.cen, parts.rot, parts.mixed), (swapped.cen, swapped.rot, swapped.mixed)):
            if abs(x + y) > 1e-12:
                return False, "antisymmetry of the field splitting failed"
        # proportional charges + constant field kill the mixed component
        prop = ParticleSystem(
            masses=system.masses, charges=[2.5 * m for m in system.masses], positions=system.positions
        )
        ok, _ = decoupling_check(prop, fld)
        if not ok:
            return False, "decoupling criterion rejected proportional charges"
        parts_prop = split_field(prop, config, fld, v, w, v0, w0)
        if abs(parts_prop.mixed) > 1e-12:
            return False, "mixed component did not vanish under q_i = k m_i"
    # dipole values
    m1, m2, q1, a = 1.0, 3.0, 2.0, 1.25
    dip = ParticleSystem(
        masses=[m1, m2], charges=[q1, -q1], positions=[[a, 0, 0], [-m1 * a / m2, 0, 0]]
    )
    dip_config = canonicalize(dip)
    b_vec = (0.4, -0.2, 0.9)
    fld = PatternField.uniform((0, 0, 0), b_vec)
    omega = (0.3, 0.8, -0.5)
    psi = (-0.6, 0.1, 0.7)
    parts = split_field(dip, dip_config, fld, ((1.0, -2.0, 0.5), omega), ((0.2, 0.3, -0.7), psi), 0.3, -0.8)
    if abs(parts.cen) > 1e-12:
        return False, "dipole center component is not zero"
    v_rot1 = _cross(omega, dip_config.relatives[0])
    w_rot1 = _cross(psi, dip_config.relatives[0])
    expect_rot = 2 * q1 * (m2 - m1) / m2**2 * _dot(b_vec, _cross(v_rot1, w_rot1))
    if abs(parts.rot - expect_rot) > 1e-12:
        return False, f"dipole rotational component {parts.rot} != {expect_rot}"
    return True, f"field splitting invariants and dipole values hold ({trials} trials)"


def check_classification_pipeline():
    """Canonical worked bodies: dipole is degenerate, a cube is spherical, a
    generic triangle is weakly non-degenerate and asymmetric; classification
    is invariant under a rational rotation."""
    dip = ParticleSystem([1.0, 1.0], [0.0, 0.0], [[2, 0, 0], [-2, 0, 0]])
    conf = canonicalize(dip)
    if conf.degeneracy is not DegeneracyClass.DEGENERATE:
        return False, "dipole not classified degenerate"
    pm = principal_momenta(inertia_tensor(conf), conf.degeneracy)
    if abs(pm.closed[0] - 8.0) > 1e-12:
        return False, f"dipole transverse momentum {pm.closed[0]} != 8"
    cube = ParticleSystem(
        [1.0] * 8,
        [0.0] * 8,
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
    )
    conf = canonicalize(cube)
    pm = principal_momenta(inertia_tensor(conf), conf.degeneracy)
    if pm.top_class.value != "spherical" or max(abs(x - 16.0) for x in pm.momenta) > 1e-9:
        return False, f"cube momenta {pm.momenta} not diag(16,16,16)"
    tri = ParticleSystem(
        [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [[0, 0, 0], [1.1, 0, 0], [0.3, 1.7, 0]]
    )
    conf = canonicalize(tri)
    if conf.degeneracy is not DegeneracyClass.WEAKLY_NONDEGENERATE:
        return False, "triangle not weakly non-degenerate"
    pm = principal_momenta(inertia_tensor(conf), conf.degeneracy)
    if pm.top_class.value != "asymmetric":
        return False, f"triangle top class {pm.top_class}"
    rotation_30 = ((-20, 4, 22), (20, -10, 20), (10, 28, 4))  # of the quaternion (1, 2, 3, 4), times 30
    rotated = ParticleSystem(tri.masses, tri.charges, [[_dot(row, e) / 30 for row in rotation_30] for e in tri.positions])
    conf_rot = canonicalize(rotated)
    if conf_rot.degeneracy is not conf.degeneracy:
        return False, "classification not rotation-invariant"
    pm_rot = principal_momenta(inertia_tensor(conf_rot), conf_rot.degeneracy)
    if _max_gap([pm_rot.momenta], [pm.momenta]) > 1e-9:
        return False, "principal momenta not rotation-invariant"
    return True, "dipole / cube / triangle pipeline and rotation invariance verified"


def suite_plan(j_max=6):
    """The checks to run, with sweep depths scaled to the j_max override
    (the defaults reproduce the full acceptance depths)."""
    j_max = max(1, int(j_max))
    d_full = 2 * j_max
    return (
        ("su2 commutators", lambda: check_su2_commutators(min(8, d_full))),
        ("casimir scalars", lambda: check_casimir(min(8, d_full))),
        ("x3 spectrum", lambda: check_x3_spectrum(min(8, d_full))),
        ("harmonic dimensions", lambda: check_dimensions(d_full)),
        ("parity selection", lambda: check_parity_selection(min(12, d_full))),
        ("j squared spectrum", check_j_squared),
        ("spherical vs diagonalization", lambda: check_spherical_spectrum(j_max)),
        ("half-integer branch", lambda: check_half_integer_branch(j_max)),
        ("symmetric vs diagonalization", lambda: check_symmetric_spectrum(j_max)),
        ("asymmetric j=1 triad", check_asymmetric_j1),
        ("asymmetric ladder oracle", lambda: check_asymmetric_oracle(min(4, j_max))),
        ("degenerate sphere levels", lambda: check_degenerate_case(min(8, d_full))),
        ("scalar curvature oracle", check_curvature),
        ("monopole consistency", check_monopole),
        ("geometry invariants", check_geometry_layer),
        ("field splitting invariants", check_em_layer),
        ("classification pipeline", check_classification_pipeline),
    )


def run_suite(j_max=6, out=print) -> int:
    """Run every check, print one line each, return a process exit code."""
    start = time.monotonic()
    plan = suite_plan(j_max)
    failures = []
    for name, fn in plan:
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that raises fails; the rest still run
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        out(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures.append(name)
    elapsed = time.monotonic() - start
    out(f"{'OK' if not failures else 'FAILED'}  {len(plan) - len(failures)}/{len(plan)} checks in {elapsed:.1f} s")
    if failures:
        out(f"first failing property: {failures[0]}")
        return 1
    return 0
