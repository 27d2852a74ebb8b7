"""The library's one memoisation mechanism.

Every value the package keeps for reuse is cached by ``memo``.  Bruhat
comparisons are the exception: ``WeylGroup.bruhat_leq`` fills a table
with every pair its descent loop meets, not one entry per call.
"""

import functools


def memo(key=None):
    """Cache a function's results under ``key(*args, **kwargs)``.

    ``key`` receives the call's own arguments, ``self`` included, and
    returns a hashable canonical form of them, so that equal arguments
    spelled differently (a list and a tuple, ``a2`` and ``A2``) share one
    entry; without a ``key`` the function keeps a single result.  The
    table of a method (first parameter ``self``) lives on the instance,
    so it lives as long as the object; any other function keeps its table
    on the function.  A call that raises stores nothing.  Tables have no
    size limit, and callers share each result.
    """
    def decorate(fn):
        code = fn.__code__
        on_instance = code.co_argcount > 0 and code.co_varnames[0] == "self"
        attr = "_memo_" + fn.__name__
        shared = {}

        @functools.wraps(fn)
        def cached(*args, **kwargs):
            k = None if key is None else key(*args, **kwargs)
            try:
                return (args[0].__dict__[attr] if on_instance else shared)[k]
            except KeyError:
                pass
            table = (args[0].__dict__.setdefault(attr, {}) if on_instance
                     else shared)
            result = table[k] = fn(*args, **kwargs)
            return result

        return cached

    return decorate
