import importlib
import inspect
import pkgutil
import typing

import disentsim


def _annotated_objects():
    """Every function, class and method defined in the package's modules."""
    for info in pkgutil.iter_modules(disentsim.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(f"disentsim.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{info.name}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_every_annotation_resolves():
    # annotations are strings under postponed evaluation; a name a module
    # never imports only shows up when a tool resolves them
    failures = []
    for qualname, obj in _annotated_objects():
        try:
            typing.get_type_hints(obj)
        except (NameError, AttributeError, TypeError) as exc:
            failures.append(f"{qualname}: {exc!r}")
    assert not failures, failures
