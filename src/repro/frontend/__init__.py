"""The command-line front end: ``udp-prove`` (:mod:`repro.frontend.cli`).

Program mode, ``batch``, ``serve`` and ``cluster`` all run on
:class:`~repro.session.Session` — directly, or through a
:class:`~repro.server.pool.SessionPool` — which is also the library's one
way in.
"""
