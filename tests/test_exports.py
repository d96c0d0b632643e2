import importlib
import pkgutil

import gradleak


def test_every_exported_name_resolves():
    modules = [gradleak] + [
        importlib.import_module(f"gradleak.{info.name}")
        for info in pkgutil.iter_modules(gradleak.__path__)
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    assert "compose" in gradleak.__all__ and "GradientObservation" in gradleak.__all__


def test_no_apply_functions_are_exported():
    # each observation transform is applied through its config's apply method
    import gradleak.defenses

    for mod in (gradleak, gradleak.defenses):
        assert not [n for n in dir(mod) if n.startswith("apply_")], mod.__name__
