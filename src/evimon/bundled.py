"""Access to the model files and traces shipped with the package."""

from __future__ import annotations

from importlib import resources

MODELS = (
    "luminosity",
    "luminosity_crisp",
    "speed_limits",
    "ride_comfort",
)

TRACES = (
    "luminosity_comfort_30",
    "speed_limits_mixed_600",
    "ride_comfort_mixed_120",
)


def model_path(name: str):
    if name not in MODELS:
        raise KeyError(f"no bundled model named {name!r}; available: {MODELS}")
    return resources.files("evimon").joinpath("data", "models", f"{name}.json")


def trace_path(name: str):
    if name not in TRACES:
        raise KeyError(f"no bundled trace named {name!r}; available: {TRACES}")
    return resources.files("evimon").joinpath("data", "traces", f"{name}.csv")

