"""Per-rule fixtures: every rule has a trigger, a clean, and a suppression case.

Each fixture is a tiny on-disk project run through the real engine, so
these tests also exercise discovery, module-name derivation and the
``# repro: noqa[RULE-ID]`` pipeline exactly as ``python -m repro.checks``
does.  A meta-test asserts the fixture table covers the whole battery, so
adding a rule without fixtures fails the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.checks import ALL_RULES, CheckConfig, run_checks


@dataclass(frozen=True)
class RuleFixture:
    """Trigger/clean/suppressed sources for one rule."""

    relpath: str                    # where the varying file lives
    trigger: str                    # source producing >= 1 finding
    clean: str                      # source producing 0 findings
    suppressed: str                 # trigger + noqa producing 0 findings
    extra_files: dict = field(default_factory=dict)   # shared scaffolding


FIXTURES: dict[str, RuleFixture] = {
    "RNG001": RuleFixture(
        relpath="repro_fixture/sim.py",
        trigger=(
            "import numpy as np\n"
            "def draw(n):\n"
            "    np.random.seed(0)\n"
            "    return np.random.rand(n)\n"
        ),
        clean=(
            "import numpy as np\n"
            "def draw(n, rng: np.random.Generator):\n"
            "    return rng.random(n)\n"
        ),
        suppressed=(
            "import numpy as np\n"
            "def draw(n):\n"
            "    np.random.seed(0)  # repro: noqa[RNG001]\n"
            "    return np.random.rand(n)  # repro: noqa[RNG001]\n"
        ),
    ),
    "RNG002": RuleFixture(
        relpath="repro_fixture/sim.py",
        trigger=(
            "import numpy as np\n"
            "def init():\n"
            "    return np.random.default_rng()\n"
        ),
        clean=(
            "import numpy as np\n"
            "def init(seed=0):\n"
            "    return np.random.default_rng(seed)\n"
        ),
        suppressed=(
            "import numpy as np\n"
            "def init():\n"
            "    return np.random.default_rng()  # repro: noqa[RNG002]\n"
        ),
    ),
    "DT001": RuleFixture(
        relpath="nn/layers_fixture.py",
        trigger=(
            "import numpy as np\n"
            "def forward(x):\n"
            "    return np.asarray(x) * 2\n"
        ),
        clean=(
            "import numpy as np\n"
            "def forward(x):\n"
            "    return np.asarray(x, dtype=np.float64) * 2\n"
        ),
        suppressed=(
            "import numpy as np\n"
            "def forward(x):\n"
            "    return np.asarray(x) * 2  # repro: noqa[DT001]\n"
        ),
    ),
    "DT002": RuleFixture(
        relpath="metrics/fast_fixture.py",
        trigger=(
            "import numpy as np\n"
            "def shrink(x):\n"
            "    return x.astype(np.float32)\n"
        ),
        clean=(
            "import numpy as np\n"
            "def shrink(x):\n"
            "    return x.astype(np.float64)\n"
        ),
        suppressed=(
            "import numpy as np\n"
            "def shrink(x):\n"
            "    return x.astype(np.float32)  # repro: noqa[DT002]\n"
        ),
    ),
    "DIV001": RuleFixture(
        relpath="metrics/ratio_fixture.py",
        trigger=(
            "def ratio(a, b):\n"
            "    return a / b\n"
        ),
        clean=(
            "EPS = 1e-12\n"
            "def ratio(a, b):\n"
            "    return a / (b + EPS)\n"
        ),
        suppressed=(
            "def ratio(a, b):\n"
            "    return a / b  # repro: noqa[DIV001]\n"
        ),
    ),
    "REG001": RuleFixture(
        relpath="plugins/registry.py",
        trigger=(
            "from plugins.impl import Alpha, Beta\n"
            'THINGS = {"alpha": Alpha, "beta": Beta, "alpha": Alpha}\n'
        ),
        clean=(
            "from plugins.impl import Alpha\n"
            'THINGS = {"alpha": Alpha}\n'
        ),
        suppressed=(
            "from plugins.impl import Alpha, Beta\n"
            "THINGS = {\n"
            '    "alpha": Alpha,\n'
            '    "beta": Beta,  # repro: noqa[REG001]\n'
            '    "alpha": Alpha,  # repro: noqa[REG001]\n'
            "}\n"
        ),
        extra_files={
            "plugins/__init__.py": '__all__ = ["Alpha"]\nfrom plugins.impl import Alpha\n',
            "plugins/impl.py": "class Alpha: pass\n\nclass Beta: pass\n",
        },
    ),
    "IMP001": RuleFixture(
        relpath="pkg/alpha.py",
        trigger="from pkg.beta import helper\n\ndef top():\n    return helper\n",
        clean="def top():\n    from pkg.beta import helper\n    return helper\n",
        suppressed=(
            "from pkg.beta import helper  # repro: noqa[IMP001]\n"
            "\n"
            "def top():\n"
            "    return helper\n"
        ),
        extra_files={
            "pkg/__init__.py": "",
            "pkg/beta.py": "from pkg.alpha import top\n\ndef helper():\n    return top\n",
        },
    ),
    "DEF001": RuleFixture(
        relpath="repro_fixture/util.py",
        trigger="def collect(x, into=[]):\n    into.append(x)\n    return into\n",
        clean=(
            "def collect(x, into=None):\n"
            "    into = [] if into is None else into\n"
            "    into.append(x)\n"
            "    return into\n"
        ),
        suppressed=(
            "def collect(x, into=[]):  # repro: noqa[DEF001]\n"
            "    into.append(x)\n"
            "    return into\n"
        ),
    ),
    "ATM001": RuleFixture(
        relpath="repro_fixture/store.py",
        trigger=(
            "import numpy as np\n"
            "def save_state(path, arr):\n"
            "    np.savez_compressed(path, arr=arr)\n"
        ),
        clean=(
            "import os\n"
            "import numpy as np\n"
            "def save_state(path, arr):\n"
            "    tmp = str(path) + '.tmp'\n"
            "    np.savez_compressed(tmp, arr=arr)\n"
            "    os.replace(tmp, path)\n"
        ),
        suppressed=(
            "import numpy as np\n"
            "def save_state(path, arr):\n"
            "    np.savez_compressed(path, arr=arr)  # repro: noqa[ATM001]\n"
        ),
    ),
    "THR001": RuleFixture(
        relpath="repro_fixture/pipe.py",
        trigger=(
            "import threading\n"
            "def run(items):\n"
            "    total = {'n': 0}\n"
            "    def worker():\n"
            "        for _ in items:\n"
            "            total['n'] += 1\n"
            "    t = threading.Thread(target=worker)\n"
            "    t.start()\n"
            "    t.join()\n"
            "    return total['n']\n"
        ),
        clean=(
            "import threading\n"
            "def run(items):\n"
            "    total = {'n': 0}\n"
            "    lock = threading.Lock()\n"
            "    def worker():\n"
            "        for _ in items:\n"
            "            with lock:\n"
            "                total['n'] += 1\n"
            "    t = threading.Thread(target=worker)\n"
            "    t.start()\n"
            "    t.join()\n"
            "    return total['n']\n"
        ),
        suppressed=(
            "import threading\n"
            "def run(items):\n"
            "    total = {'n': 0}\n"
            "    def worker():\n"
            "        for _ in items:\n"
            "            total['n'] += 1  # repro: noqa[THR001]\n"
            "    t = threading.Thread(target=worker)\n"
            "    t.start()\n"
            "    t.join()\n"
            "    return total['n']\n"
        ),
    ),
    "THR002": RuleFixture(
        relpath="repro_fixture/transport.py",
        trigger=(
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def publish(data):\n"
            "    shm = SharedMemory(create=True, size=len(data))\n"
            "    shm.buf[: len(data)] = data\n"
            "    return len(data)\n"
        ),
        clean=(
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def publish(data):\n"
            "    shm = SharedMemory(create=True, size=len(data))\n"
            "    try:\n"
            "        shm.buf[: len(data)] = data\n"
            "        return len(data)\n"
            "    finally:\n"
            "        shm.close()\n"
            "        shm.unlink()\n"
        ),
        suppressed=(
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def publish(data):\n"
            "    shm = SharedMemory(create=True, size=len(data))  # repro: noqa[THR002]\n"
            "    shm.buf[: len(data)] = data\n"
            "    return len(data)\n"
        ),
    ),
    "THR003": RuleFixture(
        relpath="repro_fixture/state.py",
        trigger=(
            "import threading\n"
            "GUARD = threading.Lock()\n"
            "def update(store, key, value):\n"
            "    GUARD.acquire()\n"
            "    store[key] = value\n"
            "    GUARD.release()\n"
        ),
        clean=(
            "import threading\n"
            "GUARD = threading.Lock()\n"
            "def update(store, key, value):\n"
            "    with GUARD:\n"
            "        store[key] = value\n"
        ),
        suppressed=(
            "import threading\n"
            "GUARD = threading.Lock()\n"
            "def update(store, key, value):\n"
            "    GUARD.acquire()  # repro: noqa[THR003]\n"
            "    store[key] = value\n"
            "    GUARD.release()\n"
        ),
    ),
    "THR004": RuleFixture(
        relpath="repro_fixture/spawner.py",
        trigger=(
            "import threading\n"
            "def kick(fn):\n"
            "    t = threading.Thread(target=fn)\n"
            "    t.start()\n"
        ),
        clean=(
            "import threading\n"
            "def kick(fn):\n"
            "    t = threading.Thread(target=fn)\n"
            "    t.start()\n"
            "    t.join()\n"
        ),
        suppressed=(
            "import threading\n"
            "def kick(fn):\n"
            "    t = threading.Thread(target=fn)  # repro: noqa[THR004]\n"
            "    t.start()\n"
        ),
    ),
    "ALS001": RuleFixture(
        relpath="repro_fixture/kernels.py",
        trigger=(
            "import numpy as np\n"
            "def project(x, w):\n"
            "    np.matmul(x, w, out=x)\n"
            "    return x\n"
        ),
        clean=(
            "import numpy as np\n"
            "def project(x, w, out):\n"
            "    np.matmul(x, w, out=out)\n"
            "    return out\n"
        ),
        suppressed=(
            "import numpy as np\n"
            "def project(x, w):\n"
            "    np.matmul(x, w, out=x)  # repro: noqa[ALS001]\n"
            "    return x\n"
        ),
    ),
    "ALS002": RuleFixture(
        relpath="nn/act_fixture.py",
        trigger=(
            "import numpy as np\n"
            "class Act:\n"
            "    def forward(self, x, ws):\n"
            "        mask = ws.buffer('mask', x.shape)\n"
            "        np.greater(x, 0, out=mask)\n"
            "        self._mask = mask\n"
            "        return x\n"
        ),
        clean=(
            "import numpy as np\n"
            "class Act:\n"
            "    def forward(self, x, ws):\n"
            "        mask = ws.buffer('mask', x.shape)\n"
            "        np.greater(x, 0, out=mask)\n"
            "        self._mask = mask.copy()\n"
            "        return x\n"
        ),
        suppressed=(
            "import numpy as np\n"
            "class Act:\n"
            "    def forward(self, x, ws):\n"
            "        mask = ws.buffer('mask', x.shape)\n"
            "        np.greater(x, 0, out=mask)\n"
            "        self._mask = mask  # repro: noqa[ALS002]\n"
            "        return x\n"
        ),
    ),
    "RES001": RuleFixture(
        relpath="repro_fixture/daemon.py",
        trigger=(
            "import signal\n"
            "def handler(signum, frame):\n"
            "    pass\n"
            "def install():\n"
            "    signal.signal(signal.SIGTERM, handler)\n"
        ),
        clean=(
            "import signal\n"
            "def handler(signum, frame):\n"
            "    pass\n"
            "def install():\n"
            "    previous = signal.signal(signal.SIGTERM, handler)\n"
            "    try:\n"
            "        pass\n"
            "    finally:\n"
            "        signal.signal(signal.SIGTERM, previous)\n"
        ),
        suppressed=(
            "import signal\n"
            "def handler(signum, frame):\n"
            "    pass\n"
            "def install():\n"
            "    signal.signal(signal.SIGTERM, handler)  # repro: noqa[RES001]\n"
        ),
    ),
    "PRF001": RuleFixture(
        relpath="repro_fixture/kernels.py",
        trigger=(
            "# hot-path\n"
            "import numpy as np\n"
            "def run(batches):\n"
            "    for b in batches:\n"
            "        tmp = np.empty(b.shape)\n"
            "        tmp[:] = b * 2.0\n"
        ),
        clean=(
            "# hot-path\n"
            "import numpy as np\n"
            "def run(batches, ws):\n"
            "    for b in batches:\n"
            "        out = ws.buffer('out', b.shape)\n"
            "        np.multiply(b, 2.0, out=out)\n"
        ),
        suppressed=(
            "# hot-path\n"
            "import numpy as np\n"
            "def run(batches):\n"
            "    for b in batches:\n"
            "        tmp = np.empty(b.shape)  # repro: noqa[PRF001]\n"
            "        tmp[:] = b * 2.0\n"
        ),
    ),
}


def _run_fixture(tmp_path, fixture: RuleFixture, source: str, rule_id: str):
    for relpath, content in fixture.extra_files.items():
        f = tmp_path / relpath
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(content)
    target = tmp_path / fixture.relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    config = CheckConfig(select=frozenset({rule_id}))
    return run_checks([tmp_path], config=config)


def test_fixture_table_covers_whole_battery():
    assert set(FIXTURES) == {cls.id for cls in ALL_RULES}


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_trigger_fires(tmp_path, rule_id):
    result = _run_fixture(tmp_path, FIXTURES[rule_id], FIXTURES[rule_id].trigger, rule_id)
    assert result.findings, f"{rule_id} trigger fixture produced no findings"
    assert all(f.rule == rule_id for f in result.findings)


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_clean_is_clean(tmp_path, rule_id):
    result = _run_fixture(tmp_path, FIXTURES[rule_id], FIXTURES[rule_id].clean, rule_id)
    assert not result.findings, f"{rule_id} clean fixture: {result.findings}"


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_noqa_suppresses(tmp_path, rule_id):
    result = _run_fixture(
        tmp_path, FIXTURES[rule_id], FIXTURES[rule_id].suppressed, rule_id
    )
    assert not result.findings, f"{rule_id} suppression fixture: {result.findings}"
    assert result.suppressed >= 1


# ---------------------------------------------------------------- edge cases


def test_perf_rule_exempts_out_target_arena_fill(tmp_path):
    """The batched engine's fallback idiom: a loop allocation whose name is
    elsewhere an ``out=`` target is the arena itself, not churn."""
    src = (
        "# hot-path\n"
        "import numpy as np\n"
        "def run(batches):\n"
        "    for b in batches:\n"
        "        gbuf = np.empty(b.shape)\n"
        "        np.multiply(b, 2.0, out=gbuf)\n"
    )
    fixture = RuleFixture("repro_fixture/kernels.py", src, src, src)
    assert not _run_fixture(tmp_path, fixture, src, "PRF001").findings


def test_perf_rule_out_exemption_matches_attribute_and_subscript_targets(tmp_path):
    src = (
        "# hot-path\n"
        "import numpy as np\n"
        "def warm(self, tags, n, batches):\n"
        "    for tag in tags:\n"
        "        self.scratch[tag] = np.empty(n)\n"
        "    for tag, b in zip(tags, batches):\n"
        "        np.multiply(b, 2.0, out=self.scratch[tag])\n"
    )
    fixture = RuleFixture("repro_fixture/kernels.py", src, src, src)
    assert not _run_fixture(tmp_path, fixture, src, "PRF001").findings


def test_perf_rule_still_fires_when_out_targets_differ(tmp_path):
    src = (
        "# hot-path\n"
        "import numpy as np\n"
        "def run(batches, arena):\n"
        "    for b in batches:\n"
        "        tmp = np.empty(b.shape)\n"
        "        np.multiply(b, 2.0, out=arena)\n"
    )
    fixture = RuleFixture("repro_fixture/kernels.py", src, src, src)
    result = _run_fixture(tmp_path, fixture, src, "PRF001")
    assert len(result.findings) == 1
    assert "np.empty" in result.findings[0].message


def test_div_rule_accepts_clamped_denominator(tmp_path):
    src = (
        "import numpy as np\n"
        "def ratio(a, b):\n"
        "    return a / np.maximum(b, 1e-12)\n"
    )
    fixture = RuleFixture("metrics/m.py", src, src, src)
    assert not _run_fixture(tmp_path, fixture, src, "DIV001").findings


def test_div_rule_accepts_ssim_style_stabilizers(tmp_path):
    src = (
        "def ssim_like(mu_a, mu_b, c1):\n"
        "    return (2 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)\n"
    )
    fixture = RuleFixture("metrics/m.py", src, src, src)
    assert not _run_fixture(tmp_path, fixture, src, "DIV001").findings


def test_div_rule_ignores_out_of_scope_modules(tmp_path):
    src = "def ratio(a, b):\n    return a / b\n"
    fixture = RuleFixture("vis/m.py", src, src, src)
    assert not _run_fixture(tmp_path, fixture, src, "DIV001").findings


def test_registry_rule_flags_unexported_factory(tmp_path):
    fixture = RuleFixture(
        "plugins/registry.py",
        'from plugins.impl import Beta\nTHINGS = {"beta": Beta}\n',
        "",
        "",
        extra_files=FIXTURES["REG001"].extra_files,
    )
    result = _run_fixture(tmp_path, fixture, fixture.trigger, "REG001")
    assert any("missing from" in f.message for f in result.findings)


def test_registry_rule_flags_duplicate_register_calls(tmp_path):
    fixture = RuleFixture(
        "plugins/registry.py",
        (
            "from plugins.impl import Alpha\n"
            "def register(name, factory):\n"
            "    pass\n"
            'register("alpha", Alpha)\n'
            'register("alpha", Alpha)\n'
        ),
        "",
        "",
        extra_files=FIXTURES["REG001"].extra_files,
    )
    result = _run_fixture(tmp_path, fixture, fixture.trigger, "REG001")
    assert any("registered twice" in f.message for f in result.findings)


def test_registry_rule_flags_all_dupes_and_unbound(tmp_path):
    fixture = RuleFixture(
        "plugins/__init__.py",
        '__all__ = ["Alpha", "Alpha", "Ghost"]\nfrom plugins.impl import Alpha\n',
        "",
        "",
        extra_files={"plugins/impl.py": "class Alpha: pass\n"},
    )
    result = _run_fixture(tmp_path, fixture, fixture.trigger, "REG001")
    messages = " | ".join(f.message for f in result.findings)
    assert "twice" in messages and "never binds" in messages


def test_registry_rule_allows_pep562_lazy_exports(tmp_path):
    # A module-level __getattr__ (PEP 562) can bind any exported name on
    # demand, so "never binds" must not fire (repro.perf re-exports the
    # campaign layer this way to break the core <-> perf import cycle).
    fixture = RuleFixture(
        "plugins/__init__.py",
        (
            '__all__ = ["Alpha", "Lazy"]\n'
            "from plugins.impl import Alpha\n"
            "def __getattr__(name):\n"
            '    if name == "Lazy":\n'
            "        from plugins.impl import Alpha as Lazy\n"
            "        return Lazy\n"
            "    raise AttributeError(name)\n"
        ),
        "",
        "",
        extra_files={"plugins/impl.py": "class Alpha: pass\n"},
    )
    result = _run_fixture(tmp_path, fixture, fixture.trigger, "REG001")
    assert not any("never binds" in f.message for f in result.findings)


def test_import_cycle_reports_full_chain(tmp_path):
    fixture = FIXTURES["IMP001"]
    result = _run_fixture(tmp_path, fixture, fixture.trigger, "IMP001")
    assert len(result.findings) == 1
    assert "pkg.alpha" in result.findings[0].message
    assert "pkg.beta" in result.findings[0].message


def test_unseeded_rng_allows_variable_seed(tmp_path):
    src = (
        "import numpy as np\n"
        "def init(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    fixture = RuleFixture("repro_fixture/sim.py", src, src, src)
    assert not _run_fixture(tmp_path, fixture, src, "RNG002").findings


def test_dtype_boundary_only_applies_inside_nn(tmp_path):
    src = "import numpy as np\ndef load(x):\n    return np.asarray(x)\n"
    fixture = RuleFixture("io_helpers/loader.py", src, src, src)
    assert not _run_fixture(tmp_path, fixture, src, "DT001").findings


def test_thr001_condition_variable_counts_as_lock(tmp_path):
    """``with self._cond:`` guards writes: condition variables ARE locks."""
    src = (
        "import threading\n"
        "class Server:\n"
        "    def __init__(self):\n"
        "        self._cond = threading.Condition()\n"
        "        self._n = {'requests': 0}\n"
        "        threading.Thread(target=self._run).start()\n"
        "    def _run(self):\n"
        "        with self._cond:\n"
        "            self._n['requests'] += 1\n"
    )
    fixture = RuleFixture("repro_fixture/serve.py", src, src, src)
    assert not _run_fixture(tmp_path, fixture, src, "THR001").findings


def test_thr001_cond_heuristic_anchors_to_name_segment(tmp_path):
    """``second``/``precondition`` must not pass as locks via 'cond'."""
    src = (
        "import threading\n"
        "class Server:\n"
        "    def __init__(self):\n"
        "        self._second = open('/dev/null')\n"
        "        self._n = {'requests': 0}\n"
        "        threading.Thread(target=self._run).start()\n"
        "    def _run(self):\n"
        "        with self._second:\n"
        "            self._n['requests'] += 1\n"
    )
    fixture = RuleFixture("repro_fixture/serve.py", src, src, src)
    findings = _run_fixture(tmp_path, fixture, src, "THR001").findings
    assert findings and all(f.rule == "THR001" for f in findings)


def test_atm001_checks_a_lambda_as_its_own_scope(tmp_path):
    """A bare ``np.save`` in a lambda is flagged, even beside a rename."""
    src = (
        "import os\n"
        "import numpy as np\n"
        "def save_state(path, arr, tmp):\n"
        "    write = lambda: np.save(path, arr)\n"
        "    write()\n"
        "    os.replace(tmp, path)\n"
    )
    fixture = RuleFixture("repro_fixture/store.py", src, src, src)
    findings = _run_fixture(tmp_path, fixture, src, "ATM001").findings
    assert [(f.rule, f.line) for f in findings] == [("ATM001", 4)]


def test_atm001_passes_the_atomic_write_callback_lambda(tmp_path):
    """The serve registry's form: the lambda writes into atomic_write's temp file."""
    src = (
        "import numpy as np\n"
        "from repro.resilience.checkpoint import atomic_write\n"
        "def _atomic_save_npy(path, array):\n"
        "    atomic_write(path, lambda fh: np.save(fh, np.ascontiguousarray(array)))\n"
    )
    fixture = RuleFixture("repro_fixture/store.py", src, src, src)
    assert not _run_fixture(tmp_path, fixture, src, "ATM001").findings
