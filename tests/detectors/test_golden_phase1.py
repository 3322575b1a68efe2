"""Phase-1 reports are pinned: the detector kernel may get faster or
smaller, never different.

Every history detector's report on every Table-1 row plus figure1 and
philosophers, seeds 0-2, is digested (pairs, example location, tids,
``both_write``, ``count``, ``schedulable``, ``truncated_locations``) and
compared with a committed sha256 three ways: live from four
one-configuration kernels, live from one four-configuration kernel
(:func:`repro.detectors.make_detectors`, as a multi-detector Phase 1 runs),
and replayed from the stored trace through :func:`repro.trace.analyze_trace`.
"""

import hashlib

import pytest

from repro import workloads
from repro.core import RandomScheduler
from repro.detectors import make_detector, make_detectors
from repro.runtime import Execution
from repro.trace import TraceStore, analyze_trace, detect_key

DETECTORS = ("hybrid", "happens-before", "shb", "wcp")
SEEDS = (0, 1, 2)
PROGRAMS = tuple(
    sorted(spec.name for spec in workloads.table1_workloads())
) + ("figure1", "philosophers")


def _report_digest(report) -> str:
    """A report with each location uid replaced by its rank of first
    appearance in the (deterministically ordered) pair list, so a digest
    pins what was reported, not how the execution numbered its uids."""
    ranks: dict[int, int] = {}
    rows = []
    for pair in report.pairs:
        info = report.evidence[pair]
        token = dict(info.location.to_token())
        token["u"] = ranks.setdefault(token["u"], len(ranks))
        rows.append(
            (
                str(pair),
                sorted(token.items()),
                info.tids,
                info.both_write,
                info.count,
                info.schedulable,
            )
        )
    rows.append(report.truncated_locations)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _digests(name: str, tmp_path):
    """``{"<program>/<seed>/<detector>": digest}`` live from separate
    kernels, live from one fused kernel, and replayed."""
    spec = workloads.get(name)
    store = TraceStore(tmp_path)
    live, fused, replayed = {}, {}, {}
    for seed in SEEDS:
        observers = [make_detector(detector) for detector in DETECTORS]
        kernels, collect = make_detectors(DETECTORS)
        Execution(
            spec.build(),
            seed=seed,
            observers=observers + kernels,
            max_steps=spec.max_steps,
        ).run(RandomScheduler(preemption="every"))
        path = store.ensure(
            detect_key(name, seed, max_steps=spec.max_steps), spec.build()
        )
        offline = analyze_trace(path, DETECTORS)
        together = collect()
        for detector, observer in zip(DETECTORS, observers):
            key = f"{name}/{seed}/{detector}"
            live[key] = _report_digest(observer.report)
            fused[key] = _report_digest(together[detector])
            replayed[key] = _report_digest(offline[detector])
    return live, fused, replayed


#: sha256 of each report.  A digest moves only when some report moves; if
#: that is the point of a change, print ``_digests`` for the program and
#: update it here.
GOLDEN_PHASE1 = {
    "arraylist/0/hybrid": "e526bba2b776b61154a5ae0bdc680ae520f2a0f1091ef24bcd9c435ae47e7a31",
    "arraylist/0/happens-before": "f0b41aac79f8ec6f1342fb9bd07ce99dc03238786b6232ed0d6010ab16d22397",
    "arraylist/0/shb": "48e904121de0fafa6515a504ee706133f227929ce1ed1303bc4f84eaf7bd108e",
    "arraylist/0/wcp": "cfb13c91f761a253498c0f78fb56282846e14c0ac6159ee9b934999b9e19aed0",
    "arraylist/1/hybrid": "0454ebad2de5b5e28f2d177f787a4af22399b2dd05ac67ef26e2a4694787308b",
    "arraylist/1/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "arraylist/1/shb": "72eeb5642758bb6da25fbf95b28ca692ee8963fe4d4b3a49b8c81967943259bb",
    "arraylist/1/wcp": "c2d655a912de65e6af05dd630f11ef1717dfb0514730b5562906b065f33d7c4a",
    "arraylist/2/hybrid": "b5705500b00f0cdeff27322fb803853fd2074252de87cb4cc6fead685ce4b9ee",
    "arraylist/2/happens-before": "b37d7a2571b1c5786fc60dcad635b55350c37bbfab1297dac8530c1ec974089d",
    "arraylist/2/shb": "f033cf0250bd0d116320f9349e50072f04f9e43a08066ff9754f9ff7867d542f",
    "arraylist/2/wcp": "ee19f8dad6f12e968c01920f677f19db2abe3e91e52291a0c4f90c08552bdae5",
    "cache4j/0/hybrid": "a2206baa48204544d32d1a2ee34903c7a48006d38011a13f3ffed6d113db0934",
    "cache4j/0/happens-before": "5e3e7868293e84582c5490c447d34c37b9c60424630652b6432a76bdb71ffc76",
    "cache4j/0/shb": "d8c1723628aeb9d1ad2d79202a0afc30e32fdfd62e91afad0a3906163c087524",
    "cache4j/0/wcp": "d8c1723628aeb9d1ad2d79202a0afc30e32fdfd62e91afad0a3906163c087524",
    "cache4j/1/hybrid": "599b3d9671006965bd12c545d70a8925a938b8ece0f61a60e908440f83421b77",
    "cache4j/1/happens-before": "1634bd83d4e8c0a962b54ae7816453d608218565018da78993cdaec894004913",
    "cache4j/1/shb": "8ffdec71161cdc6cc2957e86f08676777f6e9c8c7bd64ce74ef3a7841806f24f",
    "cache4j/1/wcp": "8ffdec71161cdc6cc2957e86f08676777f6e9c8c7bd64ce74ef3a7841806f24f",
    "cache4j/2/hybrid": "f8dd6b34b8f17f9c07cceba0df8a5902aca093369e137ed45591d1be8b6064f4",
    "cache4j/2/happens-before": "255db3a57c95fbc0f965c6010d85fc2965fe7686581975da94b134a220ae50a3",
    "cache4j/2/shb": "54ef2b0c3907e3906379c25fbdb27300a83483e92873f937c6b97d5050bee63b",
    "cache4j/2/wcp": "54ef2b0c3907e3906379c25fbdb27300a83483e92873f937c6b97d5050bee63b",
    "hashset/0/hybrid": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "hashset/0/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "hashset/0/shb": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "hashset/0/wcp": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "hashset/1/hybrid": "c92c6711eafc9cf26d1406f56daa3cf200f63f3bd4d50003dd73b32319e16b5d",
    "hashset/1/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "hashset/1/shb": "f27ee128ce030db6c20e81c293dd5283e02e0cdd728f0853d49c5638b42b7122",
    "hashset/1/wcp": "f27ee128ce030db6c20e81c293dd5283e02e0cdd728f0853d49c5638b42b7122",
    "hashset/2/hybrid": "dfa81631905be7c301150778982f3340c45f66c27ae906aa5eb47cf7a32d6672",
    "hashset/2/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "hashset/2/shb": "59270769974e427ae3b5ee514ff65cad84b6a75d950942f7621fdbea47900f05",
    "hashset/2/wcp": "59270769974e427ae3b5ee514ff65cad84b6a75d950942f7621fdbea47900f05",
    "hedc/0/hybrid": "8d4a90deed14cb3adfd97c5e210fad3c712ffab56a2957c294915f3dcbe28ea8",
    "hedc/0/happens-before": "5f5b6c498f48d6dd8803d2655c61ec7a16a4ae52b03bea295f7bf6c793c627b8",
    "hedc/0/shb": "cb23f75cc85279ce0e667fcb1df2965d5d49bc1e3da6ff033c45e25fa5f1391a",
    "hedc/0/wcp": "cb23f75cc85279ce0e667fcb1df2965d5d49bc1e3da6ff033c45e25fa5f1391a",
    "hedc/1/hybrid": "802ebd1c2245b5157e6bd1f7eb8c00f89408bc20d21553e4bfda138e95fcbc02",
    "hedc/1/happens-before": "dbf657171a474bffa15388ad207d398c0585556c1fcc619a86db44b7ecedab70",
    "hedc/1/shb": "0163646fb676f3d9f3ca7e9724dc70046df1c7a06d9efaedb5286a9b59557941",
    "hedc/1/wcp": "0163646fb676f3d9f3ca7e9724dc70046df1c7a06d9efaedb5286a9b59557941",
    "hedc/2/hybrid": "8d4a90deed14cb3adfd97c5e210fad3c712ffab56a2957c294915f3dcbe28ea8",
    "hedc/2/happens-before": "5f5b6c498f48d6dd8803d2655c61ec7a16a4ae52b03bea295f7bf6c793c627b8",
    "hedc/2/shb": "cb23f75cc85279ce0e667fcb1df2965d5d49bc1e3da6ff033c45e25fa5f1391a",
    "hedc/2/wcp": "cb23f75cc85279ce0e667fcb1df2965d5d49bc1e3da6ff033c45e25fa5f1391a",
    "jigsaw/0/hybrid": "1c9129010e8c248a1fba22ce73e9ce7d0c24d98c80723dc3ea121ffc6f782c02",
    "jigsaw/0/happens-before": "ec3cda2c74158b1eaba300495e1bec719655f5c7a4ebc8e619d1494591392c95",
    "jigsaw/0/shb": "aa97251fef5af319a629ad4e45eb25b93a4a932191a67868fa06d4f1f5ff68d4",
    "jigsaw/0/wcp": "aa97251fef5af319a629ad4e45eb25b93a4a932191a67868fa06d4f1f5ff68d4",
    "jigsaw/1/hybrid": "8139dd62d96e2d078b03391ea796d18f43a863273bd7afb3e3d88ee0d9737172",
    "jigsaw/1/happens-before": "c6db4705e86042bd6fcb0946c158f482dcea01eca3760a8474a9917cab829985",
    "jigsaw/1/shb": "13faa33bb9542d7ab5fd9197f3305de4d34113b87bd669aa5d191c51ee9898bd",
    "jigsaw/1/wcp": "13faa33bb9542d7ab5fd9197f3305de4d34113b87bd669aa5d191c51ee9898bd",
    "jigsaw/2/hybrid": "4d0156381290372703a0efcb867964fd6f01c53476d161304cd425caf5e1e7c0",
    "jigsaw/2/happens-before": "cacae9d8440e23e3928b18c9f9941b6a0cd329f4a3688c16312742e9f1a20bd1",
    "jigsaw/2/shb": "3e274d75c506087ee6b9dede4665ceaf0e71668192e212193eb2359c56b1d8c9",
    "jigsaw/2/wcp": "3e274d75c506087ee6b9dede4665ceaf0e71668192e212193eb2359c56b1d8c9",
    "jspider/0/hybrid": "370723f4597f5bda8dac9ed36e8ead564506b192124958690998a315418c1391",
    "jspider/0/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "jspider/0/shb": "0503be6a700073338cef189151d357c738c5a6f74f3ca1d919665a90a871cfc2",
    "jspider/0/wcp": "0503be6a700073338cef189151d357c738c5a6f74f3ca1d919665a90a871cfc2",
    "jspider/1/hybrid": "370723f4597f5bda8dac9ed36e8ead564506b192124958690998a315418c1391",
    "jspider/1/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "jspider/1/shb": "0503be6a700073338cef189151d357c738c5a6f74f3ca1d919665a90a871cfc2",
    "jspider/1/wcp": "0503be6a700073338cef189151d357c738c5a6f74f3ca1d919665a90a871cfc2",
    "jspider/2/hybrid": "370723f4597f5bda8dac9ed36e8ead564506b192124958690998a315418c1391",
    "jspider/2/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "jspider/2/shb": "0503be6a700073338cef189151d357c738c5a6f74f3ca1d919665a90a871cfc2",
    "jspider/2/wcp": "0503be6a700073338cef189151d357c738c5a6f74f3ca1d919665a90a871cfc2",
    "linkedlist/0/hybrid": "c1ace12182a19b24b81516f6146ea02307e1c27122be2c8e1cac9293b8d4a4f5",
    "linkedlist/0/happens-before": "95fd9c5aad04ea058aa95a42aaeb71f1e43b55c9edaa869be2a175f8c9b68061",
    "linkedlist/0/shb": "c7c20a2ce7249a43eb5b36ff725836c5cbd5c1fa603f89ea89d3cb81b5bbd675",
    "linkedlist/0/wcp": "5425d66151396c86c217cf5e4b64f9f13ba6cebd241a9d722f05bfcaf72bcef1",
    "linkedlist/1/hybrid": "19e5ead19c02cb0b78f73477b2db95663fb58415874e4b048afa8b386967196d",
    "linkedlist/1/happens-before": "d18b43a13809552b60ecdf8816d671f268f01ae79c2feec55d6b03364ba2f0dd",
    "linkedlist/1/shb": "912eb81b8273609c0be9fcd92cb8782725af41088506f1040aa8f55857da8d0d",
    "linkedlist/1/wcp": "1f33faec4032a84e459be225ce394ab445a1e0add34db2edd2fae87dc750a69d",
    "linkedlist/2/hybrid": "ec4caaf12ecd971930e9db16ee52cb7809e8d2035eb9858eb19224fd8f8dd0d8",
    "linkedlist/2/happens-before": "4562ed8cda3bc9bb63c6b38fc9de1cba533ba375c9a5cac13f799ef56fe0a5f8",
    "linkedlist/2/shb": "b6a4cea99c401bfa8f89cb6158d6619e9cac0a8613b3f567307d1ffd4052ea02",
    "linkedlist/2/wcp": "35f1701ebce509cdbba481448692a8895195d8747fb9da60de57262452caa8c5",
    "moldyn/0/hybrid": "822779026e01febd6da34948ebd183257dcf42a577caaeea4a7f8a11a1b22826",
    "moldyn/0/happens-before": "b58eabe639a7e49cb5644239ea6b5ee1a81e8b8adbaaee135fdc6f3f40faa4a7",
    "moldyn/0/shb": "47fbff5a4d8c0510f9cd9c3ca91eb5c0c51aef0de39f844b73ab3a242b140165",
    "moldyn/0/wcp": "116765c5626aa344e2d5b18d568d69eb22f1b623bce976d7fa93808feba40026",
    "moldyn/1/hybrid": "735149e4a7e850994c80edf7269b43f6ab53cf2ee36356e9b3a619743b4cd7d8",
    "moldyn/1/happens-before": "bbf55b083644f7b39afbbafdbfd1b13202ad23e714388407e1536170c14415a1",
    "moldyn/1/shb": "874277e11f90629bb0cf40b57884b73fbb0dd144db27d480d1166fda14f56067",
    "moldyn/1/wcp": "02e24b217ecad825b38ea68989dc7f7ccffaa127007e535df824781df711c106",
    "moldyn/2/hybrid": "e7e2425aa298d717c4f81b940100f5fea10ab0826ea303b8a4df98289f34ef3b",
    "moldyn/2/happens-before": "3244bf187000a39c311e960eaae57a8ae507f78111aa079a720b3ea2c979ea86",
    "moldyn/2/shb": "019e1007ffdbd60c522aee8fd8c8a0ddebf751cd00fb2a1b28f23925c91ef73b",
    "moldyn/2/wcp": "32a2b4f48785b8ab7d4c0a0f55301bac7f6e5fe5ae5f75fdcdae81322a1d8342",
    "montecarlo/0/hybrid": "84228fb0013e43a45ee2274816c81f29f7e68340196d7bdb9005010a3a4e8a1d",
    "montecarlo/0/happens-before": "503d9e4c02c89a381e16d11d1ed76a3a8cc598eb62e0c07cc002cf5d16bde274",
    "montecarlo/0/shb": "497524f0538c472dde273d45bb398ac5af1c1faff409f412e120e337b21e2623",
    "montecarlo/0/wcp": "497524f0538c472dde273d45bb398ac5af1c1faff409f412e120e337b21e2623",
    "montecarlo/1/hybrid": "9e01b69f35e9aada2c54f0566eb6d323f6ed96982c784da48e4ae4e897b0ee8b",
    "montecarlo/1/happens-before": "a273132ef3f95ebf755afea824bd1d886fabab7545d7cc98e54ee4f95b79eda5",
    "montecarlo/1/shb": "c0f3c87ef5466e98f479c298d05f53ac94684b6df1c35b832bb28922c0a1a221",
    "montecarlo/1/wcp": "c0f3c87ef5466e98f479c298d05f53ac94684b6df1c35b832bb28922c0a1a221",
    "montecarlo/2/hybrid": "ea0e81837c2f55ce7e037cc2f7fbda87de072f7b193d96880d3388cc24e9f319",
    "montecarlo/2/happens-before": "41e25ada162420eeae689f8c7d0644c88a7039a0286e8bfa79b9c19c26b59896",
    "montecarlo/2/shb": "c695916b98d40d497bdfbe5f09b1a14cbe593be999f201edceb46be6c1a75994",
    "montecarlo/2/wcp": "c695916b98d40d497bdfbe5f09b1a14cbe593be999f201edceb46be6c1a75994",
    "raytracer/0/hybrid": "57b2898801714c5a16965a97403ad18871b986e6c93091c37527500b24b23694",
    "raytracer/0/happens-before": "57b2898801714c5a16965a97403ad18871b986e6c93091c37527500b24b23694",
    "raytracer/0/shb": "ae10ef68e204d4e7e3cb13e20477b544dc58aa21514380b639e4380d4c8a8422",
    "raytracer/0/wcp": "ae10ef68e204d4e7e3cb13e20477b544dc58aa21514380b639e4380d4c8a8422",
    "raytracer/1/hybrid": "57b2898801714c5a16965a97403ad18871b986e6c93091c37527500b24b23694",
    "raytracer/1/happens-before": "57b2898801714c5a16965a97403ad18871b986e6c93091c37527500b24b23694",
    "raytracer/1/shb": "ae10ef68e204d4e7e3cb13e20477b544dc58aa21514380b639e4380d4c8a8422",
    "raytracer/1/wcp": "ae10ef68e204d4e7e3cb13e20477b544dc58aa21514380b639e4380d4c8a8422",
    "raytracer/2/hybrid": "57b2898801714c5a16965a97403ad18871b986e6c93091c37527500b24b23694",
    "raytracer/2/happens-before": "7f6231ce98a33834ca688cf686446a64af5152b70ac61c185ed30e8ddd10c2ee",
    "raytracer/2/shb": "ae10ef68e204d4e7e3cb13e20477b544dc58aa21514380b639e4380d4c8a8422",
    "raytracer/2/wcp": "ae10ef68e204d4e7e3cb13e20477b544dc58aa21514380b639e4380d4c8a8422",
    "sor/0/hybrid": "5610549a778faa29754b6c083cf0e97a0f6e3c70e511566c7aed6490fcb6afee",
    "sor/0/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "sor/0/shb": "5b688dc5ea5e63d036a52fd84a673ac7577ca73dc5e9f3cf0f277b5ca1c93c2c",
    "sor/0/wcp": "5b688dc5ea5e63d036a52fd84a673ac7577ca73dc5e9f3cf0f277b5ca1c93c2c",
    "sor/1/hybrid": "5610549a778faa29754b6c083cf0e97a0f6e3c70e511566c7aed6490fcb6afee",
    "sor/1/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "sor/1/shb": "5b688dc5ea5e63d036a52fd84a673ac7577ca73dc5e9f3cf0f277b5ca1c93c2c",
    "sor/1/wcp": "5b688dc5ea5e63d036a52fd84a673ac7577ca73dc5e9f3cf0f277b5ca1c93c2c",
    "sor/2/hybrid": "5610549a778faa29754b6c083cf0e97a0f6e3c70e511566c7aed6490fcb6afee",
    "sor/2/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "sor/2/shb": "5b688dc5ea5e63d036a52fd84a673ac7577ca73dc5e9f3cf0f277b5ca1c93c2c",
    "sor/2/wcp": "5b688dc5ea5e63d036a52fd84a673ac7577ca73dc5e9f3cf0f277b5ca1c93c2c",
    "treeset/0/hybrid": "b1ce896fb57d8b68ae9b0998dede63023d5390cfb8c01c3b2338e447ab4a0026",
    "treeset/0/happens-before": "f622ef48588c6fbe516f920bcdba2cb390ac148c871ec0b51d52872606a7f7f0",
    "treeset/0/shb": "7cc348b58c3e0ddc0255446d4b46ac446e3c18dc74c20b9aa8929f134bc76598",
    "treeset/0/wcp": "ce251691febbd8156a4ccd9b97dc7a843db82b788eefe89992eeacc6d765a98a",
    "treeset/1/hybrid": "b27049fa5e617f9656fc30b98785e494ef4173906556f8dc8ef514584526a3b3",
    "treeset/1/happens-before": "3a82b633ff232ed6de19f9e4ad5548e84e45a53226b5ba34d2a1050eb605df70",
    "treeset/1/shb": "0e5c95e476a0d9ba6015361c0eb8140e65368267b1d08b484fe73c546c9c91e4",
    "treeset/1/wcp": "11e1af73e6fd26c6bef2fa61e7175f81567d1315c8ea2b1ea89da33da8bb6d7a",
    "treeset/2/hybrid": "a7d3f1c593eb56bbf08c659c15a6ef4074915a840d79753c18556a53cfc2e74d",
    "treeset/2/happens-before": "99ebb4f79679a5a7040c708f91e19512a7876c86d0cdbcd31bac260418220c9c",
    "treeset/2/shb": "94df32eef9c3d58c70e81614f98c7dc440c9f7bfef796906186ec56eb8f84b7b",
    "treeset/2/wcp": "381b4820bc58ddb833472319e4b56a2f34606c0cb026dbc664bc480a8629ce53",
    "vector/0/hybrid": "c699e05e86ed445b4f178853a37711272b999fd44462afca072ad36397d63d99",
    "vector/0/happens-before": "ff3059b8ddd01c148c7e4336e43e76662408eb4f5dc3c9d06ac47e11b79b7540",
    "vector/0/shb": "80882ff6678a86a0370b1610c0cf99d6b623ce8797c5475b8b8ef8c03bc0f524",
    "vector/0/wcp": "05751af21db446f0bb5aff69d77848ebb47251067790e5aad5ff12f9d14b08bb",
    "vector/1/hybrid": "714231c6ef72bdc4b7dd212867558f683cfff06b00fc330b2275ec9f4658ed73",
    "vector/1/happens-before": "a5f9f1dc572a7c6849d6d01298e76d09225e894385815d4970d52fbf22103ca3",
    "vector/1/shb": "7953d9a6ff9418d0e7ed4333ab53ec04195cf28dbb8768b7e928a2ae36cb568b",
    "vector/1/wcp": "87654338c25f7ff0910a8a18ed5558a0efe5099b79f8f5bd963b08a4a4cab25e",
    "vector/2/hybrid": "1e536d62c6bb254ca2c351bb6b5da98b052ad5ca0258dc93ed753b760600ab89",
    "vector/2/happens-before": "ebf5f52e8783a6819070a1308477b73aadb198272c4a5a949ba330cd1685c32c",
    "vector/2/shb": "ac35c143ffbdae96ea9a33e0b26ec6108528b149243f8c042176d248f6c43c78",
    "vector/2/wcp": "d936e883e6adc8da0d1f1b4dabef3915ea2c44148047a959495f080c6ae834d8",
    "weblech/0/hybrid": "126c6d768899bce4689fd21faa1cb01a58fed7d4c6e5ba36d689765f192c2201",
    "weblech/0/happens-before": "ab71aabd689a57cd00bc05ce25ba39522ddc85b14345a884ef2fe1745b96e97b",
    "weblech/0/shb": "29bf7988366f0be397f3c113a259e17dd4f8ac937cd4fa5a71d1e4c961869b31",
    "weblech/0/wcp": "29bf7988366f0be397f3c113a259e17dd4f8ac937cd4fa5a71d1e4c961869b31",
    "weblech/1/hybrid": "6c034552d040c192f871a19a145651e5db0ae6c0bc96ed2a8606e25a84e44b3a",
    "weblech/1/happens-before": "f3782fa13892ef70a2cf4bd0d579d6ec1a5be21d0d13129586b6757750b1b6c5",
    "weblech/1/shb": "05efdfba636cbebd12d80adba1fcc9dc60cb543110f4c973b33bbdf97ea9a125",
    "weblech/1/wcp": "05efdfba636cbebd12d80adba1fcc9dc60cb543110f4c973b33bbdf97ea9a125",
    "weblech/2/hybrid": "65e3e0131b6a5bbe3453c09d715a16ce6fcf29a488d074c43af3be5a8e77b71e",
    "weblech/2/happens-before": "042855e2847c99e9a758854d3068cc24be52740fe2213d493d80f7ec228c08fa",
    "weblech/2/shb": "150137773f6503fccf56c0efa4dd66c171bf09803d37076ed9c27813907ea5bd",
    "weblech/2/wcp": "150137773f6503fccf56c0efa4dd66c171bf09803d37076ed9c27813907ea5bd",
    "figure1/0/hybrid": "fbcca8bb7c9b531e9c226377d072ed50dc4a411dfa7286dc27345ae8f36e462d",
    "figure1/0/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "figure1/0/shb": "5e8658c50d60a46008820ec2ce880bbb915f9e4528553dd928942c1986bb0c67",
    "figure1/0/wcp": "5e8658c50d60a46008820ec2ce880bbb915f9e4528553dd928942c1986bb0c67",
    "figure1/1/hybrid": "fbcca8bb7c9b531e9c226377d072ed50dc4a411dfa7286dc27345ae8f36e462d",
    "figure1/1/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "figure1/1/shb": "5e8658c50d60a46008820ec2ce880bbb915f9e4528553dd928942c1986bb0c67",
    "figure1/1/wcp": "5e8658c50d60a46008820ec2ce880bbb915f9e4528553dd928942c1986bb0c67",
    "figure1/2/hybrid": "cc2bfb008eb4e16278960d56ab4a4af49713777fb23cd106ecf6a52c6d6c356a",
    "figure1/2/happens-before": "fbcca8bb7c9b531e9c226377d072ed50dc4a411dfa7286dc27345ae8f36e462d",
    "figure1/2/shb": "9b956dd7862b7c90e3495473c415a808e66bd297c98b78156b2b6a442bdbe6ca",
    "figure1/2/wcp": "9b956dd7862b7c90e3495473c415a808e66bd297c98b78156b2b6a442bdbe6ca",
    "philosophers/0/hybrid": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "philosophers/0/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "philosophers/0/shb": "08b39d99c11c256aa3354400ff6659caf50f5a6b1684cf4cdded475ec400965e",
    "philosophers/0/wcp": "08b39d99c11c256aa3354400ff6659caf50f5a6b1684cf4cdded475ec400965e",
    "philosophers/1/hybrid": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "philosophers/1/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "philosophers/1/shb": "d444e4b1763ad0eae175ab898f393a5c1b1aeab0744966b9e3999f15d7d23485",
    "philosophers/1/wcp": "d444e4b1763ad0eae175ab898f393a5c1b1aeab0744966b9e3999f15d7d23485",
    "philosophers/2/hybrid": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "philosophers/2/happens-before": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "philosophers/2/shb": "afdc9c05d3fc367c09ac690b61391f4b132b47536c8b64f541f71d7bce56e8de",
    "philosophers/2/wcp": "afdc9c05d3fc367c09ac690b61391f4b132b47536c8b64f541f71d7bce56e8de",
}


class TestGoldenPhase1:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_reports_match_the_pin_live_and_replayed(self, name, tmp_path):
        live, fused, replayed = _digests(name, tmp_path)
        expected = {
            key: digest
            for key, digest in GOLDEN_PHASE1.items()
            if key.startswith(f"{name}/")
        }
        assert live == expected
        assert fused == expected
        assert replayed == expected
