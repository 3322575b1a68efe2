"""The run report's ``timeline`` section and the views derived from it.

The events themselves live in the one telemetry stream
(:mod:`repro.obs.telemetry`); this module shapes a
:class:`~repro.obs.telemetry.TelemetrySnapshot`'s events for the one
document that carries them, the run report (``--metrics-out``):

* :func:`timeline_section` — the report's ``timeline`` section: every
  event in its :meth:`~repro.obs.telemetry.TimelineEvent.to_jsonable`
  form, display fields (``wall_s``/``dur_s``/``track``) and
  non-deterministic kinds included, plus :func:`pair_outcomes`, each
  fuzzed pair's trials, creations, grade and stop reason by workload.
  ``repro stats`` and ``repro trace-export`` read it.
* :func:`deterministic_section` — the projection that is the serial ==
  ``--jobs N`` == resumed equality surface: only the
  :data:`DETERMINISTIC_KINDS`, display fields stripped.  Retries and
  quarantines depend on timing, and store hits and misses on what the
  store held before the run, so they stay out of it.
"""

from __future__ import annotations

TIMELINE_VERSION = 1

#: Event kinds whose identity stream is schedule-determined: identical
#: between serial, ``--jobs N`` and checkpoint-resumed campaigns.  Only
#: these enter :func:`deterministic_section`.
DETERMINISTIC_KINDS = frozenset(
    {
        "schedule.bind",
        "pair.bind",
        "schedule.round",
        "schedule.stop",
        "chunk",
        "trial",
        "detect",
        "funnel",
    }
)


def deterministic_events(events):
    """The events of :data:`DETERMINISTIC_KINDS`, in their given order."""
    return [e for e in events if e.kind in DETERMINISTIC_KINDS]


def pair_label(pair):
    """Canonical display label for a statement pair (``siteA|siteB``)."""
    return f"{pair.first.site}|{pair.second.site}"


# -- the run-report `timeline` section --------------------------------


def timeline_section(snapshot):
    """The run report's ``timeline`` section: every event of ``snapshot``
    with its display fields, and each fuzzed pair's outcome."""
    return {
        "version": TIMELINE_VERSION,
        "budget": snapshot.budget,
        "dropped": snapshot.dropped,
        "events": [event.to_jsonable() for event in snapshot.events],
        "pairs": pair_outcomes(deterministic_events(snapshot.events)),
    }


def deterministic_section(snapshot):
    """The deterministic projection of :func:`timeline_section`.

    Events are restricted to :data:`DETERMINISTIC_KINDS` and reduced to
    ``[kind, key, attrs]``, so the projection compares ``==`` between
    serial, ``--jobs N`` and checkpoint-resumed campaigns.
    """
    section = timeline_section(snapshot)
    section["events"] = [
        [e.kind, list(e.key), e.attrs_dict]
        for e in deterministic_events(snapshot.events)
    ]
    return section


def validate_timeline_section(section, *, path="timeline"):
    """Shape-check a report ``timeline`` section; returns error strings."""
    errors = []
    if not isinstance(section, dict):
        return [f"{path}: expected an object"]
    version = section.get("version")
    if not isinstance(version, int) or version < 1:
        errors.append(f"{path}.version: expected a positive integer")
    elif version > TIMELINE_VERSION:
        errors.append(
            f"{path}.version: {version} is newer than supported {TIMELINE_VERSION}"
        )
    for field_name in ("budget", "dropped"):
        value = section.get(field_name)
        if not isinstance(value, int) or value < 0:
            errors.append(f"{path}.{field_name}: expected a non-negative integer")
    events = section.get("events")
    if not isinstance(events, list):
        errors.append(f"{path}.events: expected a list")
    else:
        for i, entry in enumerate(events):
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("kind"), str)
                or not isinstance(entry.get("key", []), list)
                or not isinstance(entry.get("attrs", {}), dict)
                or not isinstance(entry.get("wall_s", 0.0), (int, float))
                or not isinstance(entry.get("dur_s", 0.0), (int, float))
                or not isinstance(entry.get("track", ""), str)
            ):
                errors.append(
                    f"{path}.events[{i}]: expected an event object "
                    "(kind, key list, attrs object, display fields)"
                )
                break
    pairs = section.get("pairs")
    if pairs is not None and not isinstance(pairs, dict):
        errors.append(f"{path}.pairs: expected an object")
    return errors


# -- the per-pair view -----------------------------------------------


def pair_outcomes(events):
    """Each fuzzed pair's outcome: ``{workload: {label: row}}``.

    One pass over ``chunk``, ``pair.bind`` and ``schedule.stop`` events,
    all keyed ``(workload, label, ...)``.  A row's ``trials`` and
    ``created`` sum its executed chunks, so they count what
    ``fuzz.trials`` counts; ``grade`` is the Phase-1 grade the pair was
    bound with and ``stopped`` the reason the adaptive schedule retired
    it, each present only when recorded.  Sums commute, so the rows are
    the same however the chunks settled.
    """
    pairs = {}
    for event in events:
        if event.kind not in ("chunk", "pair.bind", "schedule.stop"):
            continue
        workload, label = event.key[0], event.key[1]
        row = pairs.setdefault(workload, {}).setdefault(
            label, {"trials": 0, "created": 0}
        )
        attrs = event.attrs_dict
        if event.kind == "chunk":
            row["trials"] += attrs.get("trials", 0)
            row["created"] += attrs.get("created", 0)
        elif event.kind == "schedule.stop":
            row["stopped"] = attrs["reason"]
        elif "grade" in attrs:
            row["grade"] = attrs["grade"]
    return {
        workload: dict(sorted(rows.items()))
        for workload, rows in sorted(pairs.items())
    }


__all__ = [
    "DETERMINISTIC_KINDS",
    "TIMELINE_VERSION",
    "deterministic_events",
    "deterministic_section",
    "pair_label",
    "pair_outcomes",
    "timeline_section",
    "validate_timeline_section",
]
