"""Step 1A of one search, for tests that inspect its view atoms."""

from repro.rewriting import RewriteSession
from repro.rewriting.rewriter import _Search


def view_atoms(query, views=None, constraints=None, *, session=None):
    """The view atoms Step 1A finds for the chased *query*, and the
    search's stats, on *session* (a one-shot one over *views* and
    *constraints* when None)."""
    if session is None:
        session = RewriteSession(views, constraints, memo_size=0)
    search = _Search(session)
    assert search.prepare(query)
    return search.view_atoms(), search.stats
