"""Minimal estimator plumbing shared by all fit/transform/predict classes.

Follows the scikit-learn parameter conventions: constructor args are
hyperparameters, and fitted state ends in an underscore.
"""

import inspect


class NotFittedError(RuntimeError):
    """Raised when predict/transform is called before fit."""


class BaseEstimator:
    """Provides get_params/repr from the __init__ signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self):
        return {name: getattr(self, name) for name in self._param_names()}

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator, attribute):
    """Raise NotFittedError unless `attribute` exists on the estimator."""
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() first"
        )
