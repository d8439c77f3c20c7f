"""Command-line interface.

Subcommands:

    direct        phase-shift table for l in [-lmax, lmax] of one medium
    cam-scan      sigma(nu) over a rectangular complex-order grid
    flux          magnetic-flux estimate from the sigma(l) tail
    discriminate  flux comparison + discriminator table for two media
    verify        run the invariant suites, machine-readable report
    bessel        point evaluation of the special-function core (debug)

Exit codes: 0 ok, 1 verification failure, 2 configuration error (also an
lmax whose sigma tail has not settled), 3 solver error, 4 flux mismatch.
Energy is fixed at 1; other energies are a rescaling of lengths and
potentials, documented in the README but deliberately not a flag.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (CamscatError, DomainError, FluxMismatch, InsufficientTail,
                     PoleError)
from .fields import effective_potential, medium_from_json
from .inverse import FLUX_LMAX_MIN, discriminator_F, flux_tail, recover_flux
from .scattering import cam_scan, phase_shifts, write_json
from .specfun import NU_MAX, bessel_h, gamma_complex
from .verification import DEFAULT_TOLERANCES, reference_medium, run_verification

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FLUX_MISMATCH = 4


def _load_medium(path: str):
    try:
        return medium_from_json(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"medium file not found: {path}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad medium file {path}: {exc}") from exc


class ConfigError(Exception):
    pass


def _parse_scan(spec: str):
    """Parse "re0:re1:n,im0:im1:m" into a row-major complex grid."""
    try:
        re_part, im_part = spec.split(",")
        r0, r1, nr = re_part.split(":")
        i0, i1, ni = im_part.split(":")
        nr, ni = int(nr), int(ni)
        res = np.linspace(float(r0), float(r1), nr)
        ims = np.linspace(float(i0), float(i1), ni)
    except ValueError as exc:
        raise ConfigError(f"bad --scan spec {spec!r}: {exc}") from exc
    if min(nr, ni) < 1:
        raise ConfigError(f"bad --scan spec {spec!r}: point counts must be at least 1")
    return [complex(a, b) for b in ims for a in res]


def _check_lmax(lmax: int, *qs) -> None:
    """Orders l in [-lmax, lmax] reach |nu_R| <= lmax + |flux| on each medium."""
    if lmax < 0:
        raise ConfigError(f"lmax must be nonnegative, got {lmax}")
    if any(lmax + abs(q.flux_over_2pi) > NU_MAX for q in qs):
        raise ConfigError(f"lmax + |flux| exceeds the order cap NU_MAX = {NU_MAX:g}")


def _check_flux_lmax(lmax: int) -> None:
    """recover_flux reads the records flux_tail(lmax), which need l >= 20."""
    if lmax < FLUX_LMAX_MIN:
        raise ConfigError(f"flux recovery needs lmax >= {FLUX_LMAX_MIN}, got {lmax}")


def _check_scan(q, nus) -> None:
    """Every scan point has |nu - flux| <= NU_MAX, the library's order cap."""
    if not all(abs(nu - q.flux_over_2pi) <= NU_MAX for nu in nus):
        raise ConfigError(f"scan points need |nu - flux| <= NU_MAX = {NU_MAX:g}")


def _check_rtol(rtol: float) -> None:
    """The solver tolerance is a finite relative error in (0, 1)."""
    if not (math.isfinite(rtol) and 0.0 < rtol < 1.0):
        raise ConfigError(f"rtol must be finite and in (0, 1), got {rtol!r}")


def _check_out(path) -> None:
    """An output file, when given, goes into a directory that exists."""
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"output directory does not exist: {path}")


def cmd_direct(args) -> int:
    medium = _load_medium(args.medium)
    q = effective_potential(medium)
    _check_lmax(args.lmax, q)
    _check_rtol(args.rtol)
    _check_out(args.out)
    data = phase_shifts(q, (-args.lmax, args.lmax), rtol=args.rtol)
    if args.format == "csv":
        data.to_csv(args.out)
    else:
        data.to_json(args.out)
    sig_hi = data.sigma(args.lmax)
    sig_lo = data.sigma(-args.lmax)
    print(f"flux_over_2pi = {q.flux_over_2pi:.12g}")
    print(f"sigma({args.lmax}) = {sig_hi.real:+.9f}{sig_hi.imag:+.9f}i "
          f"(limit e^{{+i pi gamma}} = {np.exp(1j*np.pi*q.flux_over_2pi):.9f})")
    print(f"sigma({-args.lmax}) = {sig_lo.real:+.9f}{sig_lo.imag:+.9f}i "
          f"(limit e^{{-i pi gamma}} = {np.exp(-1j*np.pi*q.flux_over_2pi):.9f})")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_cam_scan(args) -> int:
    medium = _load_medium(args.medium)
    q = effective_potential(medium)
    grid = _parse_scan(args.scan)
    _check_scan(q, grid)
    _check_rtol(args.rtol)
    _check_out(args.out)
    scan = cam_scan(q, grid, rtol=args.rtol)
    scan.to_json(args.out)
    print(f"scanned {len(grid)} points; wrote {args.out}")
    return EXIT_OK


def cmd_flux(args) -> int:
    medium = _load_medium(args.medium)
    q = effective_potential(medium)
    _check_lmax(args.lmax, q)
    _check_flux_lmax(args.lmax)
    _check_rtol(args.rtol)
    _check_out(args.out)
    est = recover_flux(phase_shifts(q, flux_tail(args.lmax), rtol=args.rtol))
    print(f"flux_over_2pi (mod 2) = {est.flux_over_2pi_mod2:.9f}")
    print(f"tail residual         = {est.residual:.3e}")
    print(f"l used                = {list(est.l_used)}")
    if args.out:
        write_json(args.out, est.to_dict())
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_discriminate(args) -> int:
    qa = effective_potential(_load_medium(args.medium))
    qb = effective_potential(_load_medium(args.medium_b))
    _check_lmax(args.lmax, qa, qb)
    _check_flux_lmax(args.lmax)
    _check_rtol(args.rtol)
    _check_out(args.out)
    da = recover_flux(phase_shifts(qa, flux_tail(args.lmax), rtol=args.rtol))
    db = recover_flux(phase_shifts(qb, flux_tail(args.lmax), rtol=args.rtol))
    print(f"flux A (mod 2) = {da.flux_over_2pi_mod2:.9f}")
    print(f"flux B (mod 2) = {db.flux_over_2pi_mod2:.9f}")
    ls = [1, 2, 3, 5, 8, 10]
    rep = discriminator_F(qa, qb, ls, rtol=args.rtol)
    if args.format == "csv":
        rep.to_csv(args.out)
    else:
        rep.to_json(args.out)
    verdict = "identical" if rep.max_abs <= 1e-7 else "distinct"
    print(f"max scaled |F(l)| = {rep.max_abs:.3e} -> media {verdict}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    medium = _load_medium(args.medium) if args.medium else reference_medium()
    tols = {}
    for spec in args.tol or []:
        try:
            name, value = spec.split("=")
            tols[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad --tol spec {spec!r}") from exc
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance group {name!r}")
        if not (math.isfinite(tols[name]) and tols[name] > 0.0):
            raise ConfigError(f"tolerance must be finite and positive, got {spec!r}")
    _check_out(args.out)
    results = run_verification(medium, tolerances=tols, quick=not args.full)
    doc = {"schema_version": 1, "groups": [r.to_dict() for r in results]}
    if args.out:
        write_json(args.out, doc)
    all_ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: measured {r.measured:.3e} "
              f"(tolerance {r.tolerance:g}) - {r.detail}")
        all_ok &= r.passed
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_bessel(args) -> int:
    try:
        nu = complex(args.nu)
    except ValueError as exc:
        raise ConfigError(f"bad order {args.nu!r}") from exc
    try:
        if args.gamma:
            g = gamma_complex(nu)
            print(f"Gamma {g.real:.17g} {g.imag:.17g}")
            return EXIT_OK
        bv = bessel_h(nu, args.r)
    except (DomainError, PoleError) as exc:
        raise ConfigError(str(exc)) from exc
    for name in ("J", "Y", "H1", "H2", "dJ", "dH1", "dH2"):
        z = getattr(bv, name)
        print(f"{name} {z.real:.17g} {z.imag:.17g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="camscat",
        description="Fixed-energy scattering outside a disk for radial "
                    "magnetic media: direct solves, complex-angular-momentum "
                    "scans, and flux recovery.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--medium", required=True, help="medium JSON file")
        sp.add_argument("--rtol", type=float, default=1e-11,
                        help="relative error bound of every radial solve, in (0, 1)")

    sp = sub.add_parser("direct", help="phase-shift table for one medium")
    common(sp)
    sp.add_argument("--lmax", type=int, default=40)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=cmd_direct)

    sp = sub.add_parser("cam-scan", help="sigma over a complex-order grid")
    common(sp)
    sp.add_argument("--scan", required=True,
                    help='grid spec "re0:re1:n,im0:im1:m"')
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_cam_scan)

    sp = sub.add_parser("flux", help="recover the magnetic flux from sigma(l)")
    common(sp)
    sp.add_argument("--lmax", type=int, default=40)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_flux)

    sp = sub.add_parser("discriminate",
                        help="compare two media: flux first, then F(l)")
    common(sp)
    sp.add_argument("--medium-b", required=True, help="second medium JSON file")
    sp.add_argument("--lmax", type=int, default=40)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=cmd_discriminate)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--medium", default=None)
    sp.add_argument("--full", action="store_true",
                    help="full-depth scans instead of the quick profile")
    sp.add_argument("--tol", action="append", metavar="GROUP=VALUE",
                    help="override a group tolerance")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bessel", help="evaluate the special-function core")
    sp.add_argument("--nu", required=True, help="complex order, e.g. '1.5+0.5j'")
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--gamma", action="store_true",
                    help="print Gamma(nu) instead of the Bessel family")
    sp.set_defaults(fn=cmd_bessel)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, InsufficientTail) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FluxMismatch as exc:
        print(f"flux mismatch: {exc}", file=sys.stderr)
        return EXIT_FLUX_MISMATCH
    except CamscatError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
