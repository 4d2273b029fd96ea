"""Problem declarations: coefficient containers, worked presets, numerical
assumption audits, and the scenario-file front end.

A :class:`ProblemSpec` bundles the forward coefficients (drift, diffusion),
the backward data (driver, terminal), optional control structure, and the
structural constants the theory is parameterised by. Coefficient callables
are vectorised over the leading particle axis: ``drift(t, x, mu)`` receives
``x`` of shape (N, d) and returns (N, d), ``diffusion(x, mu)`` returns either
a constant (d, d) matrix or a per-state (N, d, d) stack, and ``driver`` /
``terminal`` / ``running_cost`` return (N,).

Two dissipativity regimes are tagged: ``strong`` (global one-sided
contractivity in state and law) and ``weak`` (contractive only outside a
ball, handled by reflection coupling downstream).
"""

from __future__ import annotations

import ast
import dataclasses
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ergolab.measure import EmpiricalMeasure, wasserstein

__all__ = [
    "STRONG",
    "WEAK",
    "Constants",
    "ControlSpec",
    "ProblemSpec",
    "CheckResult",
    "AuditReport",
    "Scenario",
    "ScenarioError",
    "preset",
    "PRESET_NAMES",
    "RUN_DEFAULTS",
    "audit",
    "compile_expression",
    "parse_scenario",
    "load_scenario",
]

STRONG = "strong"
WEAK = "weak"


@dataclass(frozen=True)
class Constants:
    """Structural constants of the model.

    nu: law-level one-sided dissipativity rate (strong regime).
    eta: pointwise rate (strong), or the outside-ball rate (weak).
    k_b_x / k_b_l: drift Lipschitz bounds in state and in measure (W2).
    k_s_x / k_s_l: squared-diffusion Lipschitz bounds in state and measure.
    sigma0: uniform ellipticity level of the diffusion.
    r_ball: radius outside which the weak regime is dissipative (0 if strong).
    q: polynomial growth order of driver and terminal data.
    eps: Hoelder exponent carried by the regularity theory, in (0, 1].
    """

    nu: float
    eta: float
    k_b_x: float
    k_b_l: float
    k_s_x: float
    k_s_l: float
    sigma0: float
    r_ball: float
    q: float
    eps: float

    def __post_init__(self):
        for name in ("nu", "eta", "k_b_x", "k_b_l", "k_s_x", "k_s_l",
                     "sigma0", "r_ball", "q"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"constant {name} must be finite and >= 0, got {v}")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")


@dataclass(frozen=True, eq=False)
class ControlSpec:
    """Box control set, action matrix, and running cost.

    ``quadratic_action=True`` declares L(x, mu, a) = base_cost(x, mu) + |a|^2,
    which unlocks the closed-form Hamiltonian minimiser downstream.
    """

    lo: np.ndarray
    hi: np.ndarray
    r_matrix: np.ndarray
    running_cost: Callable[[np.ndarray, EmpiricalMeasure, np.ndarray], np.ndarray]
    base_cost: Callable[[np.ndarray, EmpiricalMeasure], np.ndarray] | None = None
    quadratic_action: bool = False

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        r = np.atleast_2d(np.asarray(self.r_matrix, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("control box must satisfy lo <= hi componentwise")
        if r.shape[1] != lo.shape[0]:
            raise ValueError(
                f"action matrix has {r.shape[1]} columns for a "
                f"{lo.shape[0]}-dimensional control box")
        if self.quadratic_action and self.base_cost is None:
            raise ValueError("quadratic_action requires base_cost")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "r_matrix", r)

    @property
    def n_actions(self) -> int:
        return self.lo.shape[0]

    def action_sup_norm(self) -> float:
        """sup_{a in the box} |R a|, the driver's Lipschitz constant in z."""
        corner = np.maximum(np.abs(self.lo), np.abs(self.hi))
        return float(np.linalg.norm(np.abs(self.r_matrix) @ corner))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full model instance consumed by every numerical routine.
    ``law_stats`` declares all the coefficients read of mu, for a flow
    that keeps law statistics (``measure.LawSummary``): "mean" for
    ``mean()`` and ``m1()``, "m2" for ``m2()``, phi for ``expect(phi)``."""

    dim: int
    drift: Callable[[float, np.ndarray, EmpiricalMeasure], np.ndarray]
    diffusion: Callable[[np.ndarray, EmpiricalMeasure], np.ndarray]
    driver: Callable[[np.ndarray, EmpiricalMeasure, np.ndarray], np.ndarray]
    terminal: Callable[[np.ndarray, EmpiricalMeasure], np.ndarray]
    constants: Constants
    regime: str = STRONG
    control: ControlSpec | None = None
    name: str = "custom"
    law_stats: tuple = ("mean",)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.regime not in (STRONG, WEAK):
            raise ValueError(f"regime must be {STRONG!r} or {WEAK!r}")
        c = self.constants
        if self.regime == STRONG and not c.nu > c.k_s_x + c.k_s_l:
            raise ValueError(
                f"strong regime requires nu > k_s_x + k_s_l, got nu={c.nu}, "
                f"k_s_x + k_s_l = {c.k_s_x + c.k_s_l}")
        if self.regime == WEAK:
            x = np.zeros((1, self.dim))
            m_a = EmpiricalMeasure.dirac(0.0, dim=self.dim)
            m_b = EmpiricalMeasure.dirac(1.0, dim=self.dim)
            s_a = np.asarray(self.diffusion(x, m_a), dtype=float)
            s_b = np.asarray(self.diffusion(x, m_b), dtype=float)
            if s_a.shape != s_b.shape or not np.array_equal(s_a, s_b):
                raise ValueError(
                    "weak regime requires a distribution-free diffusion; "
                    "sigma(0, delta_0) != sigma(0, delta_1)")

    def replace(self, **changes) -> "ProblemSpec":
        return dataclasses.replace(self, **changes)

    def contraction_rate_bound(self) -> float:
        """The certified contraction rate: nu - (k_s_x + k_s_l) under the
        strong regime, the outside-ball net rate as a candidate under the
        weak one."""
        c = self.constants
        if self.regime == STRONG:
            return max(c.nu - (c.k_s_x + c.k_s_l), 0.0)
        return max(c.eta - c.k_s_x, 0.0)

    def diffusion_at(self, x: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        """Diffusion normalised to shape (N, d, d)."""
        s = np.asarray(self.diffusion(x, mu), dtype=float)
        n, d = x.shape
        if s.ndim == 0:
            s = s.reshape(1, 1)
        if s.shape == (d, d):
            return np.broadcast_to(s, (n, d, d))
        if s.shape == (n, d, d):
            return s
        raise ValueError(
            f"diffusion returned shape {s.shape}, expected {(d, d)} or {(n, d, d)}")


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

PRESET_NAMES = ("ou-attract", "ou-repel", "sine-weak", "control-lq")


def _quadratic_state_cost(x: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
    return np.sum(x * x, axis=-1)


def _quadratic_driver(x: np.ndarray, mu: EmpiricalMeasure, z: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=-1)


def _lq_hamiltonian_driver(x: np.ndarray, mu: EmpiricalMeasure,
                           z: np.ndarray) -> np.ndarray:
    # inf_{a in [-1,1]} (a^2 + z a) = -z^2/4 inside |z|<=2, 1-|z| beyond
    zz = z[..., 0]
    h = np.where(np.abs(zz) <= 2.0, -0.25 * zz * zz, 1.0 - np.abs(zz))
    return np.sum(x * x, axis=-1) + h


def _make_ou(kappa_sign: float, nu: float, name: str,
             control: ControlSpec | None = None,
             driver: Callable | None = None) -> ProblemSpec:
    eta, kappa, sigma0 = 1.0, 0.5, 1.0
    sigma_mat = np.array([[sigma0]])

    def drift(t, x, mu):
        return -eta * x + kappa_sign * kappa * mu.mean()

    return ProblemSpec(
        dim=1,
        drift=drift,
        diffusion=lambda x, mu: sigma_mat,
        driver=driver or _quadratic_driver,
        terminal=_quadratic_state_cost,
        constants=Constants(nu=nu, eta=eta, k_b_x=eta, k_b_l=kappa,
                            k_s_x=0.0, k_s_l=0.0, sigma0=sigma0, r_ball=0.0,
                            q=1.0, eps=1.0),
        regime=STRONG,
        control=control,
        name=name,
    )


def _tanh_first(p: np.ndarray) -> np.ndarray:
    """phi(p) = tanh(p_0): sine-weak's drift reads mu through E[phi(X)]."""
    return np.tanh(p[:, 0])


def _make_sine_weak() -> ProblemSpec:
    kappa = 0.05
    sigma_mat = np.array([[1.0]])

    def drift(t, x, mu):
        return -x + 1.5 * np.sin(x) + kappa * mu.expect(_tanh_first)

    return ProblemSpec(
        dim=1,
        drift=drift,
        diffusion=lambda x, mu: sigma_mat,
        driver=_quadratic_driver,
        terminal=_quadratic_state_cost,
        constants=Constants(nu=0.0, eta=0.5, k_b_x=2.5, k_b_l=kappa,
                            k_s_x=0.0, k_s_l=0.0, sigma0=1.0, r_ball=6.0,
                            q=1.0, eps=1.0),
        regime=WEAK,
        name="sine-weak",
        law_stats=(_tanh_first,),
    )


def preset(name: str) -> ProblemSpec:
    """Return one of the worked model instances.

    ou-attract: 1D mean-field OU, drift -x - 0.5 m1(mu), strongly dissipative
        with law-level rate 1.
    ou-repel: the sign-flipped interaction -x + 0.5 m1(mu); still strongly
        dissipative with rate 0.5.
    sine-weak: drift -x + 1.5 sin x + 0.05 E[tanh X], dissipative only
        outside radius 6.
    control-lq: ou-attract dynamics with quadratic running cost x^2 + a^2 on
        the action box [-1, 1]; the driver is the closed-form Hamiltonian.
    """
    if name == "ou-attract":
        return _make_ou(-1.0, nu=1.0, name=name)
    if name == "ou-repel":
        return _make_ou(+1.0, nu=0.5, name=name)
    if name == "sine-weak":
        return _make_sine_weak()
    if name == "control-lq":
        control = ControlSpec(
            lo=np.array([-1.0]), hi=np.array([1.0]), r_matrix=np.array([[1.0]]),
            running_cost=lambda x, mu, a: _quadratic_state_cost(x, mu)
            + np.sum(a * a, axis=-1),
            base_cost=_quadratic_state_cost,
            quadratic_action=True,
        )
        return _make_ou(-1.0, nu=1.0, name=name, control=control,
                        driver=_lq_hamiltonian_driver)
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


# ---------------------------------------------------------------------------
# Assumption audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    verdict: str  # pass | fail | indeterminate
    worst: float | None = None
    detail: str = ""
    witnesses: tuple = ()

    def __post_init__(self):
        if self.verdict == "fail" and not self.witnesses:
            raise ValueError("a failing check must carry at least one witness")


@dataclass(frozen=True)
class AuditReport:
    regime: str
    checks: Mapping[str, CheckResult]
    lam: float
    weak_rate_candidate: float | None
    weak_c_bound: float | None
    n_samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.verdict != "fail" for c in self.checks.values())


_CLOUD_SIZE = 64  # big enough for stable W2 quotients, small enough for exact 1D transport


def _sample_cloud(rng: np.random.Generator, dim: int) -> EmpiricalMeasure:
    center = rng.normal(0.0, 2.0, size=dim)
    spread = rng.uniform(0.5, 2.0)
    return EmpiricalMeasure(center + spread * rng.normal(size=(_CLOUD_SIZE, dim)))


def audit(spec: ProblemSpec, n_samples: int, seed: int) -> AuditReport:
    """Sampled verification of the declared dissipativity assumptions.

    Draws ``n_samples`` tuples (x, x', mu, mu') with wide-Gaussian states and
    small Gaussian clouds, and checks the declared regime's inequalities on
    every tuple. This certifies only "no counterexample found"; failing
    checks carry witness tuples. Checks outside the declared regime are
    reported as indeterminate.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xA0D17]))
    c, d = spec.constants, spec.dim
    tol = 1e-9

    xs = rng.normal(0.0, 5.0, size=(n_samples, d))
    xps = rng.normal(0.0, 5.0, size=(n_samples, d))
    clouds = [(_sample_cloud(rng, d), _sample_cloud(rng, d))
              for _ in range(n_samples)]

    law_q, point_q, diff_ratio = [], [], []
    weak_out_q, weak_in_q = [], []
    sigma_free_gap = []
    for i in range(n_samples):
        mu, mup = clouds[i]
        x = xs[i:i + 1]
        xp = xps[i:i + 1]
        dx = (x - xp)[0]
        r2 = float(dx @ dx)

        # law-level dissipativity on the paired clouds
        u, up = mu.points, mup.points
        du = u - up
        bu = spec.drift(0.0, u, mu)
        bup = spec.drift(0.0, up, mup)
        law_q.append(float(np.sum(du * (bu - bup)) / np.sum(du * du)))

        # pointwise dissipativity under a common measure
        bb = spec.drift(0.0, np.vstack([x, xp]), mu)
        num = float(dx @ (bb[0] - bb[1]))
        point_q.append(num / r2)

        # diffusion Lipschitz quotient
        s_x = spec.diffusion_at(x, mu)[0]
        s_xp = spec.diffusion_at(xp, mup)[0]
        lhs = 0.5 * float(np.sum((s_x - s_xp) ** 2))
        if c.k_s_x == 0.0 and c.k_s_l == 0.0:
            diff_ratio.append(0.0 if lhs == 0.0 else math.inf)
        else:
            w2 = wasserstein(mu, mup, 2)
            rhs = c.k_s_x * r2 + c.k_s_l * w2 ** 2
            diff_ratio.append(lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf))

        if spec.regime == WEAK:
            rad = math.sqrt(r2)
            if rad > c.r_ball:
                weak_out_q.append(num / r2)
            else:
                weak_in_q.append(num / r2)
            s_alt = spec.diffusion_at(x, mup)[0]
            sigma_free_gap.append(float(np.max(np.abs(s_x - s_alt))))

    checks: dict[str, CheckResult] = {}

    def graded(name, quotients, bound, direction="<="):
        arr = np.asarray(quotients)
        worst = float(arr.max() if direction == "<=" else arr.min())
        ok = worst <= bound + tol if direction == "<=" else worst >= bound - tol
        idx = int(arr.argmax() if direction == "<=" else arr.argmin())
        witnesses = () if ok else ((xs[idx].tolist(), xps[idx].tolist(), worst),)
        checks[name] = CheckResult("pass" if ok else "fail", worst,
                                   f"bound {bound:+.6g}", witnesses)

    if spec.regime == STRONG:
        graded("law_dissipativity", law_q, -c.nu)
        graded("pointwise_dissipativity", point_q, -c.eta)
        worst_ratio = float(np.max(diff_ratio))
        ok = worst_ratio <= 1.0 + 1e-6
        checks["diffusion_lipschitz"] = CheckResult(
            "pass" if ok else "fail", worst_ratio, "ratio to declared bound",
            () if ok else ((float(worst_ratio),),))
        checks["weak_dissipativity"] = CheckResult("indeterminate", None,
                                                   "not the declared regime")
        checks["distribution_free_diffusion"] = CheckResult(
            "indeterminate", None, "not required under the strong regime")
    else:
        if weak_out_q:
            graded("weak_dissipativity", weak_out_q, -c.eta)
        else:
            checks["weak_dissipativity"] = CheckResult(
                "indeterminate", None, "no sampled pair left the ball")
        if weak_in_q:
            graded("inside_ball_growth", weak_in_q, c.k_b_x)
        gap = float(np.max(sigma_free_gap))
        checks["distribution_free_diffusion"] = CheckResult(
            "pass" if gap == 0.0 else "fail", gap, "max |sigma(x,mu)-sigma(x,mu')|",
            () if gap == 0.0 else ((gap,),))
        checks["law_dissipativity"] = CheckResult("indeterminate", None,
                                                  "not the declared regime")
        checks["pointwise_dissipativity"] = CheckResult("indeterminate", None,
                                                        "not the declared regime")

    lam = c.nu - (c.k_s_x + c.k_s_l)
    weak_rate = weak_bound = None
    if spec.regime == WEAK:
        weak_rate = c.eta - c.k_s_x
        if c.r_ball > 0.0:
            m_b = c.k_b_x * c.r_ball
            expo = -(c.eta + 2.0 * m_b / c.r_ball) * c.r_ball ** 2 / (2.0 * c.sigma0 ** 2)
            weak_bound = (c.eta - c.k_s_x) * math.exp(expo)

    return AuditReport(regime=spec.regime, checks=checks, lam=lam,
                       weak_rate_candidate=weak_rate, weak_c_bound=weak_bound,
                       n_samples=n_samples, seed=seed)


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

class ScenarioError(ValueError):
    """Malformed scenario file, with 1-based line/column positions."""

    def __init__(self, message: str, source: str = "<scenario>",
                 line: int = 0, col: int = 0):
        self.source = source
        self.line = line
        self.col = col
        super().__init__(f"{source}:{line}:{col}: {message}")


@dataclass(frozen=True)
class Scenario:
    spec: ProblemSpec
    run: dict
    source: str
    # (line, col) of each [run] key, for diagnostics past parse time
    run_meta: dict = field(default_factory=dict)


_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.\-]+)\]\s*$")

_EXPR_FUNCS = {"sin": np.sin, "tanh": np.tanh}
_EXPR_NAMES = ("x", "m1", "m2", "z", "a", "t")
# each law name of the grammar, and the ProblemSpec.law_stats entry it reads
_LAW_STATS = {"m1": "mean", "m2": "m2"}

# Each subcommand's run parameters and their defaults. A scenario's [run]
# section and the command line's --set accept exactly these keys, plus
# seed and threads.
RUN_DEFAULTS = {
    "audit": {"particles": 2000, "r_max": None, "grid_nodes": 1000},
    "simulate": {"dt": 0.01, "horizon": 2.0, "particles": 2000, "x0": 0.0,
                 "x0_prime": None, "flow_every": 10, "p": 2},
    "invariant": {"dt": 0.02, "t_burn": None, "particles": 2000},
    "coupling": {"dt": 0.005, "horizon": 10.0, "particles": 1000,
                 "paths": 1000, "x0": 0.0, "gap": 4.0, "delta": None},
    "bsde": {"dt": 0.01, "horizon": 1.0, "particles": 5000, "x0": 0.0,
             "degree": None},
    "ebsde": {"dt": 0.02, "particles": 3000, "degree": None,
              "alphas": (0.4, 0.2, 0.1, 0.05), "t_burn": None,
              "t_long": None},
    "ltb1": {"dt": 0.01, "particles": 5000, "t_grid": (5.0, 10.0, 20.0),
             "x0": 0.0, "degree": None, "lam": None},
    "ltb2": {"dt": 0.02, "particles": 5000, "t_grid": (2.0, 4.0, 6.0, 8.0),
             "x0": 3.0, "degree": None, "lam": None},
    "ltb3": {"dt": 0.02, "particles": 5000, "t_grid": (1.0, 2.0, 3.0, 4.0),
             "x0": 1.0, "degree": None},
    "control": {"dt": 0.02, "horizon": 2.0, "particles": 3000, "x0": 1.0,
                "degree": None, "t_long": 40.0, "n_controls": 4,
                "t_grid": None, "ell": 0.0},
    "report": {"run_dir": None},
}

_RUN_KEYS = frozenset({"seed", "threads"}).union(*RUN_DEFAULTS.values())

_MODEL_KEYS = frozenset({
    "preset", "dim", "regime", "drift", "diffusion", "driver", "terminal",
})
_CONSTANT_KEYS = ("nu", "eta", "k_b_x", "k_b_l", "k_s_x", "k_s_l", "sigma0",
                  "r_ball", "q", "eps")
_CONTROL_KEYS = frozenset({"lo", "hi", "r_matrix", "running_cost", "base_cost",
                           "quadratic_action"})


@dataclass(frozen=True)
class CompiledExpression:
    """A whitelisted arithmetic expression over the symbolic model variables."""

    source: str
    names: frozenset
    _code: object = field(repr=False, default=None)

    def __call__(self, **env) -> np.ndarray | float:
        scope = dict(_EXPR_FUNCS)
        scope.update(env)
        return eval(self._code, {"__builtins__": {}}, scope)  # noqa: S307


def compile_expression(text: str, *, source: str = "<expr>", line: int = 1,
                       col: int = 1) -> CompiledExpression:
    """Compile a coefficient expression over {x, m1, m2, z, a, t} built from
    numbers, + - * / **, and the functions sin / tanh."""

    def err(msg, node=None) -> ScenarioError:
        c = col + (node.col_offset if node is not None else 0)
        return ScenarioError(msg, source, line, c)

    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ScenarioError(f"syntax error in expression: {exc.msg}", source,
                            line, col + (exc.offset or 1) - 1) from None

    names: set[str] = set()
    allowed_ops = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load)):
            continue
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, allowed_ops):
                raise err(f"operator {type(node.op).__name__} not allowed", node)
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.USub, ast.UAdd)):
                raise err(f"unary {type(node.op).__name__} not allowed", node)
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise err(f"literal {node.value!r} not allowed", node)
        elif isinstance(node, ast.Name):
            if node.id in _EXPR_FUNCS:
                continue
            if node.id not in _EXPR_NAMES:
                raise err(f"unknown name {node.id!r}; allowed: "
                          f"{', '.join(_EXPR_NAMES)}", node)
            names.add(node.id)
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS):
                raise err("only sin(...) and tanh(...) calls are allowed", node)
            if len(node.args) != 1 or node.keywords:
                raise err(f"{node.func.id} takes exactly one argument", node)
        elif isinstance(node, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                               ast.USub, ast.UAdd)):
            continue
        else:
            raise err(f"{type(node).__name__} not allowed in expressions", node)

    code = compile(tree, filename=source, mode="eval")
    return CompiledExpression(text.strip(), frozenset(names), code)


def _parse_value(raw: str):
    parts = raw.split()
    if len(parts) > 1:
        try:
            return [float(p) for p in parts]
        except ValueError:
            return raw
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _parse_sections(text: str, source: str):
    """INI-style sections of key = value lines, positions retained."""
    sections: dict[str, dict[str, tuple]] = {}
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        m = _SECTION_RE.match(stripped.strip())
        if m:
            current = m.group(1).lower()
            sections.setdefault(current, {})
            continue
        if "=" not in stripped:
            raise ScenarioError("expected 'key = value' or '[section]'",
                                source, lineno, 1)
        if current is None:
            raise ScenarioError("key outside any [section]", source, lineno, 1)
        key, _, value = stripped.partition("=")
        col = stripped.index("=") + 2 + (len(value) - len(value.lstrip()))
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ScenarioError(f"empty value for {key!r}", source, lineno, col)
        if key in sections[current]:
            raise ScenarioError(f"duplicate key {key!r}", source, lineno, 1)
        sections[current][key] = (value, lineno, col)
    return sections


def _law_names(expr: CompiledExpression, mu) -> dict:
    """The law statistics among an expression's names, read from mu."""
    return {name: getattr(mu, name)() for name in expr.names & _LAW_STATS.keys()}


def _law_stats(names) -> tuple:
    """The ``ProblemSpec.law_stats`` that expressions over ``names`` read."""
    return tuple(stat for name, stat in _LAW_STATS.items() if name in names)


def _expression_coefficients(model: dict, constants: Constants, source: str):
    """Build vectorised coefficient callables from symbolic entries."""

    def compiled(key, allowed, required=True):
        if key not in model:
            if required:
                raise ScenarioError(f"custom model needs a {key!r} entry", source)
            return None
        value, line, col = model[key]
        expr = compile_expression(str(value), source=source, line=line, col=col)
        bad = expr.names - set(allowed)
        if bad:
            raise ScenarioError(
                f"{key} may only use {{{', '.join(allowed)}}}, found "
                f"{', '.join(sorted(bad))}", source, line, col)
        return expr

    drift_e = compiled("drift", ("x", "m1", "m2", "t"))
    diff_e = compiled("diffusion", ("x", "m1", "m2"))
    driver_e = compiled("driver", ("x", "m1", "m2", "z"))
    terminal_e = compiled("terminal", ("x", "m1", "m2"))

    def drift(t, x, mu):
        out = drift_e(t=t, x=x[:, 0], **_law_names(drift_e, mu))
        return np.broadcast_to(np.asarray(out, dtype=float), (x.shape[0],))[:, None]

    if "t" in drift_e.names:  # where, for subcommands that freeze time
        drift._reads_t_at = model["drift"][1:]

    def diffusion(x, mu):
        law = _law_names(diff_e, mu)
        if "x" in diff_e.names:
            out = np.asarray(diff_e(x=x[:, 0], **law), dtype=float)
            return np.broadcast_to(out, (x.shape[0],))[:, None, None]
        return np.array([[float(diff_e(**law))]])

    def driver(x, mu, z):
        out = driver_e(x=x[:, 0], z=z[:, 0], **_law_names(driver_e, mu))
        return np.broadcast_to(np.asarray(out, dtype=float), (x.shape[0],))

    def terminal(x, mu):
        out = terminal_e(x=x[:, 0], **_law_names(terminal_e, mu))
        return np.broadcast_to(np.asarray(out, dtype=float), (x.shape[0],))

    names = drift_e.names | diff_e.names | driver_e.names | terminal_e.names
    return drift, diffusion, driver, terminal, names


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse scenario text into a model plus run-parameter defaults.

    Layout: a [model] section declaring either ``preset = <name>`` or a full
    symbolic model (dim/regime/drift/diffusion/driver/terminal plus
    [model.constants] and optionally [model.control]), and a [run] section of
    numeric defaults the command line may override.
    """
    sections = _parse_sections(text, source)
    unknown = set(sections) - {"model", "model.constants", "model.control", "run"}
    if unknown:
        raise ScenarioError(f"unknown section [{sorted(unknown)[0]}]", source)
    model = sections.get("model")
    if not model:
        raise ScenarioError("missing [model] section", source)

    for key, (_, line, _col) in model.items():
        if key not in _MODEL_KEYS:
            raise ScenarioError(f"unknown model key {key!r}", source, line, 1)

    if "preset" in model:
        value, line, col = model["preset"]
        extra = set(model) - {"preset"}
        if extra:
            raise ScenarioError(
                f"preset models take no other keys, found {sorted(extra)[0]!r}",
                source, line, col)
        try:
            spec = preset(str(value))
        except ValueError as exc:
            raise ScenarioError(str(exc), source, line, col) from None
    else:
        dim_entry = model.get("dim", (1, 0, 0))
        if int(dim_entry[0]) != 1:
            raise ScenarioError("symbolic models are one-dimensional",
                                source, dim_entry[1], dim_entry[2])
        regime = str(model.get("regime", (STRONG, 0, 0))[0]).lower()
        if regime not in (STRONG, WEAK):
            entry = model["regime"]
            raise ScenarioError(f"regime must be {STRONG!r} or {WEAK!r}",
                                source, entry[1], entry[2])
        raw_consts = sections.get("model.constants", {})
        for key, (_, line, _col) in raw_consts.items():
            if key not in _CONSTANT_KEYS:
                raise ScenarioError(f"unknown constant {key!r}", source, line, 1)
        defaults = dict(nu=1.0, eta=1.0, k_b_x=1.0, k_b_l=0.0, k_s_x=0.0,
                        k_s_l=0.0, sigma0=1.0, r_ball=0.0, q=1.0, eps=1.0)
        for key in _CONSTANT_KEYS:
            if key in raw_consts:
                value, line, col = raw_consts[key]
                try:
                    defaults[key] = float(value)
                except (TypeError, ValueError):
                    raise ScenarioError(f"constant {key} must be numeric",
                                        source, line, col) from None
        try:
            constants = Constants(**defaults)
        except ValueError as exc:
            raise ScenarioError(str(exc), source) from None
        drift, diffusion, driver, terminal, names = _expression_coefficients(
            model, constants, source)

        control = None
        raw_ctrl = sections.get("model.control")
        if raw_ctrl:
            for key, (_, line, _col) in raw_ctrl.items():
                if key not in _CONTROL_KEYS:
                    raise ScenarioError(f"unknown control key {key!r}",
                                        source, line, 1)
            def ctrl_num(key, default):
                if key not in raw_ctrl:
                    return default
                value, line, col = raw_ctrl[key]
                try:
                    return float(value)
                except (TypeError, ValueError):
                    raise ScenarioError(f"{key} must be numeric", source,
                                        line, col) from None
            lo = ctrl_num("lo", -1.0)
            hi = ctrl_num("hi", 1.0)
            rmat = ctrl_num("r_matrix", 1.0)
            if "running_cost" not in raw_ctrl:
                raise ScenarioError("control section needs running_cost", source)
            value, line, col = raw_ctrl["running_cost"]
            cost_e = compile_expression(str(value), source=source, line=line,
                                        col=col)
            bad = cost_e.names - {"x", "m1", "m2", "a"}
            if bad:
                raise ScenarioError(
                    f"running_cost may only use x, m1, m2, a; found "
                    f"{sorted(bad)[0]!r}", source, line, col)

            def running_cost(x, mu, a):
                out = cost_e(x=x[:, 0], a=a[..., 0], **_law_names(cost_e, mu))
                return np.broadcast_to(np.asarray(out, dtype=float), (x.shape[0],))

            names = names | cost_e.names

            control = ControlSpec(lo=np.array([lo]), hi=np.array([hi]),
                                  r_matrix=np.array([[rmat]]),
                                  running_cost=running_cost)

        try:
            spec = ProblemSpec(dim=1, drift=drift, diffusion=diffusion,
                               driver=driver, terminal=terminal,
                               constants=constants, regime=regime,
                               control=control, name="scenario",
                               law_stats=_law_stats(names))
        except ValueError as exc:
            raise ScenarioError(str(exc), source) from None

    run: dict = {}
    run_meta: dict = {}
    for key, (value, line, col) in sections.get("run", {}).items():
        if key not in _RUN_KEYS:
            raise ScenarioError(f"unknown run key {key!r}", source, line, col)
        run[key] = _parse_value(str(value)) if isinstance(value, str) else value
        run_meta[key] = (line, col)

    return Scenario(spec=spec, run=run, source=source, run_meta=run_meta)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", str(path)) from None
    return parse_scenario(text, source=str(path))
