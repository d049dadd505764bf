"""Command-line front end: figure data as CSV, maximizer reports, verification suites.

Exit codes: 0 success, 1 hard-invariant failure, 2 configuration error,
3 I/O error.  Each command imports only the entcap modules it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import ConfigurationError, DomainError, _checked_real

REPORTED_RATE_FACTOR = 1.2108      # reference value; direct evaluation gives twice this
REPORTED_ANCILLA_FACTOR = 1.4459

EXIT_OK = 0
EXIT_HARD_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# what each command reads: its RunConfig fields beyond COMMON_FIELDS, and its
# grid axes with their default (lo, hi, count).  Any other field given is an error
COMMON_FIELDS = ("command", "log_base", "seed", "out")
COMMAND_READS = {
    "figure1": (("theta", "grid"), {"p": (0.0, 1.0, 101), "t": (0.0, 3.0, 101)}),
    "figure2": (("theta_list", "grid"), {"T": (0.0, 0.45, 45)}),
    "figures34": (("family", "lambda_count", "method"), {}),
    "maximize": (("target", "mu"), {}),
    "verify": (("suite", "n_samples"), {}),
}


def parse_grid_spec(value) -> dict:
    """Grid specs name -> (lo, hi, count) from 'name=lo:hi:count,...' text or a JSON mapping."""
    if isinstance(value, str):
        pieces = [piece.split("=") for piece in value.split(",") if piece.strip()]
        value = {name.strip(): spec.split(":") for name, spec in pieces}
    specs = {name: (float(lo), float(hi), int(count)) for name, (lo, hi, count) in dict(value).items()}
    if any(count < 1 for _, _, count in specs.values()):
        raise ValueError("grid counts must be positive")
    _checked_real([end for lo, hi, _ in specs.values() for end in (lo, hi)], "grid ends must be finite")
    return specs


def _seed(value) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


def _floats(value) -> tuple:
    """At least one float, from comma-separated flag text or from a JSON list."""
    items = value.split(",") if isinstance(value, str) else value
    out = tuple(float(x) for x in items if not isinstance(x, str) or x.strip())
    if not out:
        raise ValueError("expected at least one value")
    return out


def _triple(value) -> tuple:
    out = _floats(value)
    if len(out) != 3:
        raise ValueError(f"expected 3 values, got {len(out)}")
    return out


def _option(default, convert, help=None, choices=None):
    """A RunConfig field; flags and JSON keys both pass through ``convert``."""
    meta = {"convert": convert, "help": help, "choices": choices}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Flat, JSON-serializable description of one CLI run; each field is one flag."""

    command: str = _option("", str, choices=tuple(COMMAND_READS))
    log_base: str = _option("e", str, choices=("2", "e"))
    seed: int = _option(0, _seed)
    out: str | None = _option(None, str, "output path (default: stdout)")
    grid: dict = _option({}, parse_grid_spec, "comma-separated name=lo:hi:count specs")
    theta: float = _option(1.0, float)
    theta_list: tuple = _option((0.5, 1.0), _floats, "comma-separated figure2 thetas")
    family: int = _option(1, int, choices=(1, 2))
    lambda_count: int = _option(101, int)
    method: str = _option("analytic", str, choices=("analytic", "numeric"))
    target: str = _option("", str, "maximize target: rate-factor, ancilla-factor, beta or h-max")
    mu: tuple = _option((1.0, 0.5, 0.2), _triple, "comma-separated mu1,mu2,mu3 for h-max")
    suite: str = _option("all", str, choices=("bounds", "properties", "all"))
    n_samples: int = _option(200, int)

    def _read_fields(self) -> set:
        """Names of the fields the command reads."""
        return set(COMMON_FIELDS) | set(COMMAND_READS.get(self.command, ((), {}))[0])

    def to_json(self) -> str:
        """The fields the command reads, as a document ``from_json`` takes back."""
        names = self._read_fields()
        return json.dumps({k: v for k, v in asdict(self).items() if k in names}, sort_keys=True, indent=2)

    @classmethod
    def from_values(cls, values: dict) -> "RunConfig":
        """Config from raw flag strings or JSON values; None keeps a field's default.

        A field given a value, or a grid axis, that the command does not read
        (``COMMAND_READS``) is an error.
        """
        schema = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, value in values.items():
            if key not in schema:
                raise ConfigurationError(f"unknown config key {key!r}")
            if value is None:
                continue
            meta = schema[key].metadata
            try:
                kwargs[key] = meta["convert"](value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad value for {key}: {value!r} ({exc})") from exc
            if meta["choices"] and kwargs[key] not in meta["choices"]:
                raise ConfigurationError(f"{key} must be one of {', '.join(map(str, meta['choices']))}, got {value!r}")
        cfg = cls(**kwargs)
        if not cfg.command:
            return cfg
        if unread := sorted(set(kwargs) - cfg._read_fields()):
            raise ConfigurationError(f"command {cfg.command!r} does not read {', '.join(unread)}")
        axes = COMMAND_READS[cfg.command][1]
        if unread := sorted(set(cfg.grid) - set(axes)):
            raise ConfigurationError(f"command {cfg.command!r} reads grid axes {{{', '.join(axes)}}}, "
                                     f"got {', '.join(unread)}")
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError("config document must be a JSON object")
        return cls.from_values(data)


def _fmt(x: float) -> str:
    """Round-trip decimal rendering."""
    return repr(float(x))


def write_text(path: str | None, text: str) -> None:
    """Write a command's output to ``path``, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write output to {path}: {exc}") from exc


def write_csv(path: str | None, metadata: dict, header: list[str], rows) -> None:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in metadata.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    write_text(path, "\n".join(lines) + "\n")


def cmd_figure1(cfg: RunConfig) -> int:
    from .speed_limits import family_entropy, family_sqrt_capacity

    grid = {**COMMAND_READS["figure1"][1], **cfg.grid}
    p, t = np.meshgrid(np.linspace(*grid["p"]), np.linspace(*grid["t"]), indexing="ij")
    cap = family_sqrt_capacity(p, cfg.theta, t, cfg.log_base) ** 2
    ent = family_entropy(p, cfg.theta, t, cfg.log_base)
    rows = np.stack([p, t, cap, ent], axis=-1).reshape(-1, 4).tolist()
    write_csv(cfg.out, {"command": "figure1", "log_base": cfg.log_base, "seed": cfg.seed,
                        "theta": _fmt(cfg.theta)},
              ["p", "t", "C_E", "S_EE"], rows)
    return EXIT_OK


def cmd_figure2(cfg: RunConfig) -> int:
    from .speed_limits import family_qsl_curve

    t_lo, t_hi, t_count = cfg.grid.get("T", COMMAND_READS["figure2"][1]["T"])
    durations = np.linspace(t_lo + (t_hi - t_lo) / t_count, t_hi, t_count)  # count durations in (lo, hi]
    rows = []
    for theta in cfg.theta_list:
        tqsl = family_qsl_curve(1.0, theta, durations, base=cfg.log_base)
        for T, bound in zip(durations, tqsl):
            rows.append((float(theta), float(T), float(bound), float(bound / T)))
    write_csv(cfg.out, {"command": "figure2", "log_base": cfg.log_base, "seed": cfg.seed,
                        "p": "1.0"},
              ["theta", "T", "T_qsl", "ratio"], rows)
    return EXIT_OK


def cmd_figures34(cfg: RunConfig) -> int:
    """E_R and C_E over every lambda at once; only the numeric solver runs per lambda."""
    from .core import DensityOperator, _checked_density, _relative_entropy
    from .mixed import _capacity_mixed, _family_matrices, closest_separable_numeric

    if cfg.lambda_count < 1:
        raise ConfigurationError(f"lambda_count must be positive, got {cfg.lambda_count}")
    lams = np.linspace(0.0, 1.0, cfg.lambda_count)
    raw_rho, raw_sigma = _family_matrices(cfg.family, lams)
    rho = _checked_density(raw_rho)
    if cfg.method == "analytic":
        sigma = _checked_density(raw_sigma)
        e_r = _relative_entropy(rho, sigma, cfg.log_base)
        methods, converged = [f"analytic-family-{cfg.family}"] * len(lams), [1] * len(lams)
    else:
        approx = [closest_separable_numeric(DensityOperator(m, d_a=2, d_b=2), cfg.log_base) for m in raw_rho]
        sigma = np.stack([a.sigma_star.matrix for a in approx])
        e_r = [a.relative_entropy for a in approx]
        methods, converged = [a.method for a in approx], [int(a.converged) for a in approx]
    cap = _capacity_mixed(rho, sigma, cfg.log_base)
    rows = zip(lams.tolist(), np.asarray(e_r, dtype=float).tolist(), cap.tolist(), methods, converged)
    write_csv(cfg.out, {"command": "figures34", "log_base": cfg.log_base, "seed": cfg.seed,
                        "family": cfg.family, "method": cfg.method},
              ["lambda", "E_R", "C_E", "method", "converged"], rows)
    return EXIT_OK


def cmd_maximize(cfg: RunConfig) -> int:
    from .dynamics import (
        capacity_rate_factor_maximum,
        max_entangling_element,
        max_entangling_element_numeric,
        NonlocalHamiltonian,
    )
    from .measures import capacity_from_spectrum, capacity_two_qubit_closed
    from .self_inverse import max_entropy_rate_constant

    base = cfg.log_base
    lines = [f"# command=maximize target={cfg.target} log_base={base}"]
    if cfg.target in ("rate-factor", "ancilla-factor"):
        k, reported = (1, REPORTED_RATE_FACTOR) if cfg.target == "rate-factor" else (3, REPORTED_ANCILLA_FACTOR)
        x, v = capacity_rate_factor_maximum(base, k)
        if k == 1:
            capacity = capacity_two_qubit_closed(x, base)
        else:
            capacity = capacity_from_spectrum([x] + [(1.0 - x) / k] * k, base).capacity
        lines.append(f"maximizer p0={_fmt(x)}")
        lines.append(f"value={_fmt(abs(v))}")
        lines.append(f"capacity_at_maximizer={_fmt(capacity)}")
        lines.append(f"reported_value={_fmt(reported)}")
        lines.append(f"discrepancy={_fmt(abs(abs(v) - reported))}")
        if k == 1:
            lines.append("note=direct evaluation of the printed rate expression is twice the reported value")
    elif cfg.target == "beta":
        v = max_entropy_rate_constant(base)
        lines.append(f"value={_fmt(v)}")
        lines.append("reported_value=n/a")
    elif cfg.target == "h-max":
        ham = NonlocalHamiltonian(mu=tuple(float(m) for m in cfg.mu))
        analytic = max_entangling_element(ham)
        numeric = max_entangling_element_numeric(ham)
        lines.append(f"mu={','.join(_fmt(m) for m in cfg.mu)}")
        lines.append(f"analytic={_fmt(analytic)}")
        lines.append(f"numeric={_fmt(numeric)}")
        lines.append(f"discrepancy={_fmt(abs(analytic - numeric))}")
    else:
        raise ConfigurationError(f"unknown maximize target {cfg.target!r}")
    write_text(cfg.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    from .verify import format_report, hard_failures, run_suite

    results = run_suite(cfg.suite, cfg.n_samples, cfg.seed, cfg.log_base)
    report = f"# command=verify suite={cfg.suite} n_samples={cfg.n_samples} seed={cfg.seed} log_base={cfg.log_base}\n"
    report += format_report(results)
    write_text(cfg.out, report)
    return EXIT_OK if hard_failures(results) == 0 else EXIT_HARD_FAILURE


def build_parser() -> argparse.ArgumentParser:
    """One ``--flag-name`` per RunConfig field, parsed as text and converted by RunConfig."""
    parser = argparse.ArgumentParser(
        prog="entcap",
        description="Capacity-of-entanglement figures, maximizers, and verification suites.",
    )
    for f in fields(RunConfig):
        choices = f.metadata["choices"]
        parser.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"],
                            metavar="{" + ",".join(map(str, choices)) + "}" if choices else None)
    parser.add_argument("--config", help="JSON config document (keys are the flag names with "
                                         "underscores); no other flag may be given with it")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    path = values.pop("config")
    if path is None:
        cfg = RunConfig.from_values(values)
    elif given := ["--" + name.replace("_", "-") for name, value in values.items() if value is not None]:
        raise ConfigurationError(f"--config takes no other flag, got {', '.join(given)}")
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = RunConfig.from_json(fh.read())
        except OSError as exc:
            raise OSError(f"cannot read config {path}: {exc}") from exc
    if not cfg.command:
        raise ConfigurationError("no command given (use --command or a config file)")
    return cfg


_DISPATCH = {
    "figure1": cmd_figure1,
    "figure2": cmd_figure2,
    "figures34": cmd_figures34,
    "maximize": cmd_maximize,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except (ConfigurationError, DomainError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
