import inspect

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
