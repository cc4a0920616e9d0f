import inspect
from pathlib import Path

import lowbit
from lowbit import calib, engines, errors, linalg, quantizer, report, tensorio

LIBRARY_MODULES = (calib, engines, linalg, quantizer, report, tensorio)


def test_package_re_exports_exactly_the_library_modules_all():
    # ``errors`` has no ``__all__``: the package exports its exception classes
    error_classes = {n for n, v in vars(errors).items() if inspect.isclass(v)}
    expected = set().union(*(m.__all__ for m in LIBRARY_MODULES)) | error_classes
    exported = {
        n for n, v in vars(lowbit).items() if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert exported == expected


def test_readme_library_use_runs():
    # the README's "Library use" block, run as written, so an API change
    # cannot leave it stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
