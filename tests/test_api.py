"""Public API surface tests: the top-level namespace is complete and lazy."""

import pytest

import repro


def test_version_available():
    assert repro.__version__


def test_every_public_name_resolves():
    from repro import _api

    for name in _api.__all__:
        assert getattr(repro, name) is getattr(_api, name)


def test_lazy_table_lists_exactly_the_eager_api():
    # ``repro`` resolves names from its own name -> module table; the
    # eager ``repro._api`` aggregate must list the same names, in order.
    from repro import _api

    assert repro.__all__ == ["__version__", *_api.__all__]


def test_dir_lists_public_names():
    names = dir(repro)
    for expected in ("CoverageEstimator", "ModelChecker", "BDDManager",
                     "parse_ctl", "build_counter"):
        assert expected in names


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.not_a_real_symbol


def test_private_attribute_access_raises():
    with pytest.raises(AttributeError):
        repro._not_exported


def test_error_hierarchy_rooted():
    from repro import (BDDError, CoverageError, EvaluationError, ModelError,
                       NotInSubsetError, ParseError, ReproError,
                       VerificationError)

    for exc in (BDDError, ParseError, EvaluationError, ModelError,
                NotInSubsetError, VerificationError, CoverageError):
        assert issubclass(exc, ReproError)


def test_console_script_entry_point():
    from repro.cli import main

    assert callable(main)


def test_module_entry_point():
    # python -m repro must resolve (the module exists and targets cli.main).
    import importlib

    module = importlib.import_module("repro.__main__")
    from repro.cli import main

    assert module.main is main


def test_all_imports_cleanly_and_matches_dir():
    """Snapshot of the API surface: every name in ``repro.__all__``
    resolves, and ``__all__`` and ``dir()`` agree on the public names."""
    public = repro.__all__
    assert "Analysis" in public
    assert "EngineConfig" in public
    for name in public:
        assert getattr(repro, name) is not None, name
    # dir() == __all__ plus module internals; every public name is listed
    # and nothing public is missing from __all__ (submodules hang off the
    # package as a side effect of imports and are not part of the surface).
    import types

    listed = set(dir(repro))
    assert set(public) <= listed
    underscoreless = {
        n for n in listed
        if not n.startswith("_")
        and not isinstance(getattr(repro, n), types.ModuleType)
    }
    assert underscoreless <= set(public), (
        f"public names missing from __all__: "
        f"{sorted(underscoreless - set(public))}"
    )


def test_star_import_exposes_facade():
    namespace = {}
    exec("from repro import *", namespace)
    for expected in ("Analysis", "AnalysisResult", "EngineConfig",
                     "ConfigError", "read_report", "__version__"):
        assert expected in namespace


def test_facade_and_config_errors_exported():
    from repro import Analysis, AnalysisResult, ConfigError, EngineConfig, ReportError

    assert issubclass(ConfigError, repro.ReproError)
    assert issubclass(ConfigError, ValueError)
    assert issubclass(ReportError, repro.ReproError)
    assert Analysis.builtin and AnalysisResult and EngineConfig
