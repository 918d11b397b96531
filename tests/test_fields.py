"""Primality of field characteristics, where Fraction may appear, and
qshape's independence of sympy."""

import os
import subprocess
import sys

import pytest

from qshape.fields import FieldSpec, is_prime


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division_below_100000():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if trial_division(n)]


def test_largest_characteristic_is_accepted():
    assert is_prime(2 ** 31 - 1)
    assert FieldSpec(2 ** 31 - 1).char == 2 ** 31 - 1


@pytest.mark.parametrize("n", [2047, 25326001])
def test_strong_pseudoprimes_are_rejected(n):
    # 2047 = 23 * 89 passes base 2; 25326001 = 2251 * 11251 passes 2, 3, 5
    assert not is_prime(n)
    with pytest.raises(ValueError):
        FieldSpec(n)


@pytest.mark.parametrize("char, text", [(0, "1/0"), (7, "1/7"), (7, "3/14")])
def test_zero_denominator_is_a_value_error(char, text):
    # over GF(p) a denominator divisible by p has no inverse
    with pytest.raises(ValueError, match="zero denominator"):
        FieldSpec(char).coerce(text)


def test_only_fields_names_fraction():
    # every QQ scalar is made in qshape.fields, which hands out an int
    # whenever the value is integral; no other module builds a Fraction
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "qshape")
    naming = [name for name in sorted(os.listdir(pkg)) if name.endswith(".py")
              and "Fraction" in open(os.path.join(pkg, name)).read()]
    assert naming == ["fields.py"]


def test_verify_runs_without_sympy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys; sys.modules['sympy'] = None\n"
        "import io, contextlib\n"
        "from qshape.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['verify', 'truncated_polynomial', '3'])\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("QSHAPE_SEED", None)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=300).returncode == 0
