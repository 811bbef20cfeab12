"""Command-line front end: spectrum tables, single-point negativity, ground
manifold summaries, and parameter-grid sweeps.

Exit codes: 0 on success, 2 on invalid arguments or unwritable output,
3 when a numerical invariant is violated.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .entanglement import NumericalInvariantError
from .operators import SpinStarParams
from .spectra import analytic_ground_state_m3, analytic_spectrum_m3, ground_manifold
from .sweep import SweepGrid, evaluate_point, format_field, open_output, sweep_records, write_records
from .thermal import star_spectrum


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:COUNT, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:COUNT, got {text!r}") from None


def _parse_temps(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected T1,T2,..., got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("at least one temperature is required")
    return values


def _params_from(args: argparse.Namespace) -> SpinStarParams:
    return SpinStarParams(m=args.m, omega=args.omega, epsilon=args.epsilon, eta=args.eta)


def _one_row(**fields) -> dict[str, list]:
    return {name: [value] for name, value in fields.items()}


def cmd_spectrum(args: argparse.Namespace) -> dict[str, list]:
    params = _params_from(args)
    spec = star_spectrum(params)
    # each level's rows by sector, then value: not in the order of the rounding noise inside the level
    order = np.lexsort((spec.eigenvalues, spec.sector_labels, spec.gaps))
    values, labels = spec.eigenvalues[order], spec.sector_labels[order].tolist()
    analytic = deviation = max_deviation = None
    if params.m == 3:
        analytic = analytic_spectrum_m3(params.omega, params.epsilon, params.eta)
        deviation = np.abs(values - analytic)
        max_deviation = float(np.max(deviation))

    if args.format == "json":
        return _one_row(m=params.m, omega=params.omega, epsilon=params.epsilon, eta=params.eta,
                        eigenvalues=values.tolist(), sector_labels=labels,
                        analytic=None if analytic is None else analytic.tolist(),
                        max_abs_deviation=max_deviation)
    columns = {"index": list(range(len(labels))), "eigenvalue": values.tolist(), "sector": labels}
    if analytic is not None:
        columns.update(analytic=analytic.tolist(), abs_dev=deviation.tolist())
        print(f"max_abs_deviation={format_field(max_deviation)}", file=sys.stderr)
    return columns


def cmd_negativity(args: argparse.Namespace) -> dict[str, list]:
    return evaluate_point(_params_from(args), args.t)


def cmd_ground(args: argparse.Namespace) -> dict[str, list]:
    params = _params_from(args)
    spec = star_spectrum(params)
    manifold = ground_manifold(spec)
    fidelity = None
    if params.m == 3 and manifold.degeneracy == 1:
        try:
            reference = analytic_ground_state_m3(params.epsilon, params.eta)
        except ValueError:
            pass
        else:
            fidelity = float(abs(reference @ spec.vectors(1)[:, 0]) ** 2)

    return _one_row(m=params.m, omega=params.omega, epsilon=params.epsilon, eta=params.eta,
                    ground_energy=manifold.energy, ground_degeneracy=manifold.degeneracy,
                    analytic_ground_fidelity=fidelity)


def cmd_sweep(args: argparse.Namespace) -> dict[str, list]:
    return sweep_records(SweepGrid(m=args.m, omega=args.omega, epsilon_axis=args.epsilon_range,
                                   eta_axis=args.eta_range, temperatures=args.temps))


def _add_common(parser: argparse.ArgumentParser, point: bool = True) -> None:
    parser.add_argument("--m", type=int, default=3, help="number of peripheral spins (default 3)")
    parser.add_argument("--omega", type=float, default=1.0,
                        help="natural frequency, the unit of t (default 1.0)")
    if point:
        parser.add_argument("--epsilon", type=float, default=0.0,
                            help="central coupling, an energy in omega's unit (default 0)")
        parser.add_argument("--eta", type=float, default=0.0,
                            help="ring coupling, an energy in omega's unit (default 0)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--output", default="-", metavar="PATH",
                        help="output file, '-' for stdout (default)")


@functools.cache  # built once per process: argparse takes about 1 ms to add the four subcommands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinstar",
        description="Thermal entanglement of the peripheral spins of a spin-star network.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser("spectrum", help="eigenvalue table with excitation-sector labels",
                                allow_abbrev=False)
    _add_common(p_spectrum)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_neg = sub.add_parser("negativity", help="multipartite negativity of the reduced thermal state",
                           allow_abbrev=False)
    _add_common(p_neg)
    p_neg.add_argument("--t", type=float, required=True,
                       help="dimensionless temperature k_B T/(hbar omega); 0 for the ground-manifold limit")
    p_neg.set_defaults(func=cmd_negativity)

    p_ground = sub.add_parser("ground", help="ground manifold summary", allow_abbrev=False)
    _add_common(p_ground)
    p_ground.set_defaults(func=cmd_ground)

    p_sweep = sub.add_parser("sweep", help="grid sweep over (epsilon, eta, t)",
                             allow_abbrev=False)
    _add_common(p_sweep, point=False)
    p_sweep.add_argument("--epsilon-range", type=_parse_range, required=True, metavar="MIN:MAX:COUNT")
    p_sweep.add_argument("--eta-range", type=_parse_range, required=True, metavar="MIN:MAX:COUNT")
    p_sweep.add_argument("--temps", type=_parse_temps, required=True, metavar="T1,T2,...")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """'--flag -<number>' as '--flag=-<number>': argparse takes '-1e-3' for an option."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and len(arg) > 1 and arg[0] == "-" and (arg[1].isdigit() or arg[1] == ".")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        columns = args.func(args)  # each output name to an equal-length list
        with open_output(args.output) as stream:
            write_records(columns, stream, args.format)
        return 0
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
