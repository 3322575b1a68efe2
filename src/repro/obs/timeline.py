"""The run report's ``timeline`` section and the views derived from it.

The events themselves live in the one telemetry stream
(:mod:`repro.obs.telemetry`); this module shapes a
:class:`~repro.obs.telemetry.TelemetrySnapshot`'s events for the one
document that carries them, the run report (``--metrics-out``):

* :func:`timeline_section` — the report's ``timeline`` section: every
  event in its :meth:`~repro.obs.telemetry.TimelineEvent.to_jsonable`
  form, display fields (``wall_s``/``dur_s``/``track``) and
  non-deterministic kinds included, plus per-pair posterior
  trajectories.  ``repro trace-export`` and ``repro dash`` read it.
* :func:`deterministic_section` — the projection that is the serial ==
  ``--jobs N`` == resumed equality surface: only the
  :data:`DETERMINISTIC_KINDS`, display fields stripped.  Retries and
  quarantines depend on timing, and so do store hits and misses once a
  quota lets concurrent tasks evict each other's entries, so they stay
  out of it.
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
        "schedule.posterior",
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
    with its display fields, and the per-pair posterior trajectories."""
    return {
        "version": TIMELINE_VERSION,
        "budget": snapshot.budget,
        "dropped": snapshot.dropped,
        "events": [event.to_jsonable() for event in snapshot.events],
        "pairs": pair_trajectories(deterministic_events(snapshot.events)),
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


# -- derived views ---------------------------------------------------


def pair_trajectories(events):
    """Per-pair posterior trajectory series, keyed by pair label.

    Reconstructed from deterministic *delta* events (``schedule.posterior``
    per settled chunk, ``chunk`` per executed chunk) sorted by seed
    range, so the series is identical no matter what order chunks
    settled in.  Adaptive campaigns carry explicit Beta priors from
    ``pair.bind``; fixed campaigns fall back to Beta(1, 1) so the
    dashboard can still plot a posterior-mean sparkline.
    """
    binds = {}  # pair index -> bind attrs
    posteriors = {}  # pair index -> [(seed_start, trials, created)]
    chunks = {}  # label -> [(seed_start, trials, created)]
    stops = {}  # pair index -> reason
    for event in events:
        if event.kind == "pair.bind":
            binds[event.key[0]] = event.attrs_dict
        elif event.kind == "schedule.posterior":
            index, seed_start = event.key[0], event.key[1]
            attrs = event.attrs_dict
            posteriors.setdefault(index, []).append(
                (seed_start, attrs.get("trials", 0), attrs.get("created", 0))
            )
        elif event.kind == "chunk":
            label, seed_start = event.key[0], event.key[1]
            attrs = event.attrs_dict
            chunks.setdefault(label, []).append(
                (seed_start, attrs.get("trials", 0), attrs.get("created", 0))
            )
        elif event.kind == "schedule.stop":
            stops[event.key[0]] = event.attrs_dict.get("reason")

    label_for = {
        index: attrs.get("pair", str(index)) for index, attrs in binds.items()
    }
    index_for = {label: index for index, label in label_for.items()}

    out = {}

    def _series(deltas, alpha0, beta0):
        trials = created = 0
        alpha, beta = alpha0, beta0
        points = [[0, round(alpha, 6), round(beta, 6)]]
        for _, chunk_trials, chunk_created in sorted(deltas):
            trials += chunk_trials
            created += chunk_created
            alpha += chunk_created
            beta += chunk_trials - chunk_created
            points.append([trials, round(alpha, 6), round(beta, 6)])
        return trials, created, points

    indices = set(binds) | set(posteriors)
    for index in sorted(indices, key=lambda i: (str(type(i)), str(i))):
        attrs = binds.get(index, {})
        label = label_for.get(index, str(index))
        alpha0 = attrs.get("alpha", 1.0)
        beta0 = attrs.get("beta", 1.0)
        deltas = posteriors.get(index)
        if deltas is None:
            deltas = chunks.get(label, [])
        trials, created, points = _series(deltas, alpha0, beta0)
        entry = {
            "index": index,
            "trials": trials,
            "created": created,
            "prior": [alpha0, beta0],
            "trajectory": points,
        }
        if "grade" in attrs:
            entry["grade"] = attrs["grade"]
        if index in stops:
            entry["stopped"] = stops[index]
        out[label] = entry

    # pairs seen only as executed chunks (e.g. fixed schedule without
    # bind events in the retained window)
    for label, deltas in chunks.items():
        if label in out or label in index_for:
            continue
        trials, created, points = _series(deltas, 1.0, 1.0)
        out[label] = {
            "trials": trials,
            "created": created,
            "prior": [1.0, 1.0],
            "trajectory": points,
        }
    return out


def funnel_counts(events):
    """The detector funnel (candidates → schedulable → confirmed)."""
    for event in events:
        if event.kind == "funnel":
            return event.attrs_dict
    return None


__all__ = [
    "DETERMINISTIC_KINDS",
    "TIMELINE_VERSION",
    "deterministic_events",
    "deterministic_section",
    "funnel_counts",
    "pair_label",
    "pair_trajectories",
    "timeline_section",
    "validate_timeline_section",
]
