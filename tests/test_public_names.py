"""Every public name of the library earns a caller inside the library.

A name in a module's ``__all__`` that no other code in ``src/complimits``
reads is either a paper result still waiting for its command, or it does not
belong in the library.  The waiting ones are listed here by name; a change
that gives one of them a caller removes it from the list.
"""

import ast
from pathlib import Path

import complimits

SRC = Path(complimits.__file__).parent

AWAITING_A_CALLER = {
    # the paper's Markov Gaussian bounds and their Berry-Esseen calibrator
    "markov_achievability",
    "markov_converse",
    "markov_be_calibrate",
    # an always-valid converse column for `bounds`, and an `n_star` command
    "converse_optimized",
    "n_star_approx",
    # the paper's minimal mean rate, read by the acceptance criteria
    "Rbar",
}


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded as a bare name or an attribute anywhere in the module,
    except inside the top-level definition that the name itself defines."""
    read = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None and name != own:
                read.add(name)
    return read


def unread_public_names() -> set[str]:
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    exported = {
        name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }
    return exported - set().union(*map(_read_names, trees))


def test_every_public_name_is_read_in_the_library_or_awaits_a_caller():
    assert unread_public_names() == AWAITING_A_CALLER
