"""Environment knobs reject malformed values instead of ignoring them.

A knob read as its "off" value by mistake changes what a run does without
saying so: a chaos run with an unparsable ``REPRO_CHAOS_TIMEOUT`` would
inject nothing and still pass, and a byte budget typo would silently fall
back to the default batch size.
"""

import pytest

from repro.experiments.vmap import DEFAULT_BATCH_BYTE_BUDGET, batch_byte_budget
from repro.faults import CHAOS_TIMEOUT_ENV, chaos_timeout_fraction

BUDGET_ENV = "REPRO_BATCH_BYTE_BUDGET"


class TestChaosTimeoutFraction:
    @pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
    def test_malformed_value_raises_naming_the_variable(self, raw,
                                                        monkeypatch):
        monkeypatch.setenv(CHAOS_TIMEOUT_ENV, raw)
        with pytest.raises(ValueError, match=rf"{CHAOS_TIMEOUT_ENV}='{raw}'"):
            chaos_timeout_fraction()

    def test_unset_and_empty_mean_off(self, monkeypatch):
        monkeypatch.delenv(CHAOS_TIMEOUT_ENV, raising=False)
        assert chaos_timeout_fraction() == 0.0
        monkeypatch.setenv(CHAOS_TIMEOUT_ENV, "")
        assert chaos_timeout_fraction() == 0.0

    @pytest.mark.parametrize("raw, value", [("0", 0.0), ("0.4", 0.4),
                                            ("1", 1.0)])
    def test_valid_values_pass_through(self, raw, value, monkeypatch):
        monkeypatch.setenv(CHAOS_TIMEOUT_ENV, raw)
        assert chaos_timeout_fraction() == value


class TestBatchByteBudget:
    @pytest.mark.parametrize("raw", ["abc", "0", "256M"])
    def test_malformed_value_raises_naming_the_variable(self, raw,
                                                        monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, raw)
        with pytest.raises(ValueError, match=rf"{BUDGET_ENV}='{raw}'"):
            batch_byte_budget()

    def test_unset_and_empty_mean_default(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        assert batch_byte_budget() == DEFAULT_BATCH_BYTE_BUDGET
        monkeypatch.setenv(BUDGET_ENV, "")
        assert batch_byte_budget() == DEFAULT_BATCH_BYTE_BUDGET

    def test_valid_value_passes_through(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "1048576")
        assert batch_byte_budget() == 1048576
