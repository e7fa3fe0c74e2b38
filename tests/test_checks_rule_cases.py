"""Rule detection cases beyond the trigger/clean/suppressed fixtures.

``tests/test_checks_rules.py`` gives every rule one trigger, one clean and
one suppressed fixture; these pin the spellings and counts around them:
multi-line and repeated calls, keyword-only and call-built defaults,
from-imported ``signal``, and restore calls that RES001 must not flag.
"""

from __future__ import annotations

import pytest

from repro.checks import CheckConfig, run_checks


def _findings(tmp_path, relpath: str, source: str, rule: str):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return run_checks([tmp_path], CheckConfig(select=frozenset({rule}))).findings


@pytest.mark.parametrize(
    "rule, relpath, source, count",
    [
        pytest.param(
            "DT001", "nn/m.py",
            "import numpy as np\ndef f(x):\n    return np.array(\n        x\n    )\n",
            1, id="DT001-multiline-call",
        ),
        pytest.param(
            "DT001", "nn/m.py",
            "import numpy as np\ndef f(x, y):\n    return np.asarray(x) + np.asarray(y)\n",
            2, id="DT001-two-sites-one-line",
        ),
        pytest.param(
            "DEF001", "m.py",
            'def collect(x, into={}):\n    """Doc."""\n    into[x] = True\n',
            1, id="DEF001-dict-literal",
        ),
        pytest.param(
            "DEF001", "m.py", "def f(*, seen=set()):\n    return seen\n",
            1, id="DEF001-kwonly-set-call",
        ),
        pytest.param(
            "DEF001", "m.py", "def f(x, table={'a': 1}):\n    return table\n",
            1, id="DEF001-nonempty-dict",
        ),
        pytest.param(
            "RES001", "daemon.py",
            "from signal import SIGINT, signal\ndef install(h):\n    signal(SIGINT, h)\n",
            1, id="RES001-from-import",
        ),
        pytest.param(
            "RES001", "daemon.py",
            "import signal\ndef install(num, h):\n    signal.signal(num, h)\n",
            1, id="RES001-bare-signum",
        ),
    ],
)
def test_rule_reports_each_site(tmp_path, rule, relpath, source, count):
    assert len(_findings(tmp_path, relpath, source, rule)) == count


def test_signal_restore_call_is_not_flagged(tmp_path):
    src = (
        "import signal\n"
        "def teardown(previous):\n"
        "    signal.signal(signal.SIGTERM, previous)\n"
        "def table_restore(handlers, sig):\n"
        "    signal.signal(sig, handlers[sig])\n"
    )
    assert not _findings(tmp_path, "daemon.py", src, "RES001")
