"""Parse stage: config-driven extraction from fetched pages.

The engine analogue of the reference's BeautifulSoup parsers, re-expressed
as regex-dict extractor configs (the U1 extension surface, SURVEY.md §2.9;
reference regex dicts app/service/vbpl.py:610-618, 542-548,
app/service/anle.py:75-84).

Dataflow shape: the parse stage returns the payload table only (input_hint
schema); the round task that called it writes that table beside the side
tables, through the same ``write_part``, with no mid-round
materialization.
Discovered links and edges are small control data: they are pushed to the
hash(host)-routed frontier partition actors (``stage``) and a per-round
collector actor, then committed at the round barrier — the commit sorts
the round's union by (depth, discovery_order, url), so frontier state is a
pure function of the link graph, not of task arrival order.

Attachment downloads happen INLINE within the doc parse (the reference's
per-doc stage chain downloads PDFs inside the doc loop — M11,
app/service/vbpl.py:990-1050), so payload rows are complete without a join.

discovery_order of a child = parent_order * 4096 + (1 + position), making
crawl order deterministic at any parallelism (reference semantics: pages
ascending, rows in page order — SURVEY.md §2.6 O3).
"""

from __future__ import annotations

import hashlib
import os
import re
from urllib.parse import urljoin

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..sources.imaging import decode_image, phash64
from ..sources.simweb import SimWeb, SimWebConfig
from ..state.frontier import partition_of

# ---- extractor configs (U1): field -> regex with one capture group ----

DOC_ATTR_CONFIG = {
    # the reference's full 7-field pháp quy regex dict (vbpl.py:610-618)
    "serial_number": r"<tr><td>Số ký hiệu</td><td>(.*?)</td></tr>",
    "issuance_date": r"<tr><td>Ngày ban hành</td><td>(.*?)</td></tr>",
    "effective_date": r"<tr><td>Ngày có hiệu lực</td><td>(.*?)</td></tr>",
    "gazette_date": r"<tr><td>Ngày đăng công báo</td><td>(.*?)</td></tr>",
    "applicable_information":
        r"<tr><td>Thông tin áp dụng</td><td>(.*?)</td></tr>",
    "doc_type": r"<tr><td>Loại văn bản</td><td>(.*?)</td></tr>",
    "issuing_authority": r"<tr><td>Cơ quan ban hành</td><td>(.*?)</td></tr>",
}

# div.vbInfo scrape: state + expiration date (reference vbpl.py:605-606,
# 640-648) and the box-map breadcrumb title (vbpl.py:594-601; the sim
# serves the caption there, so `title` keeps its caption value and
# td.title doubles as the reference's sub_title source)
VBINFO_STATE_RE = re.compile(r"<li>Hiệu lực: (.*?)</li>")
VBINFO_EXP_RE = re.compile(r"<li>Ngày hết hiệu lực: (.*?)</li>")
BOXMAP_RE = re.compile(r'<div class="box-map"><a href="">(.*?)</a></div>')

# second flavor, different markup and field set — the extractor is
# parameterized per doc type exactly as the reference requires (M3/M4:
# hợp nhất dict vbpl.py:542-548, anle dict anle.py:75-84)
ANLE_ATTR_CONFIG = {
    # the reference's full 8-field anle regex dict (anle.py:75-84);
    # unified-meta column mapping: adoption_date -> issuance_date,
    # application_date -> effective_date, publication_date -> gazette_date
    # (the anle model's semantically-equivalent slots, app/model/anle.py)
    "serial_number": r"<tr><th>Số án lệ</th><td>(.*?)</td></tr>",
    "title": r"<tr><th>Tên án lệ</th><td>(.*?)</td></tr>",
    "adoption_date": r"<tr><th>Ngày thông qua</th><td>(.*?)</td></tr>",
    "publication_date": r"<tr><th>Ngày công bố</th><td>(.*?)</td></tr>",
    "publication_decision":
        r"<tr><th>Quyết định công bố</th><td>(.*?)</td></tr>",
    "application_date": r"<tr><th>Ngày áp dụng</th><td>(.*?)</td></tr>",
    "sector": r"<tr><th>Lĩnh vực</th><td>(.*?)</td></tr>",
    "state": r"<tr><th>Trạng thái</th><td>(.*?)</td></tr>",
}

# third flavor: consolidated documents — attrs in a vbInfo list, full text
# behind a PDF <object> (reference hợp nhất config vbpl.py:542-573)
HOPNHAT_ATTR_CONFIG = {
    # the reference's hợp nhất dict (vbpl.py:542-548) has NO issuance
    # field: 'Ngày xác thực' maps to effective_date, plus gazette_date
    "serial_number": r"<li>Số hiệu: (.*?)</li>",
    "effective_date": r"<li>Ngày xác thực: (.*?)</li>",
    "gazette_date": r"<li>Ngày đăng công báo: (.*?)</li>",
    "doc_type": r"<li>Loại văn bản: (.*?)</li>",
    "issuing_authority": r"<li>Cơ quan ban hành: (.*?)</li>",
}

# U2 doc-type/tab registry: marker -> (attr config, tab URL templates
# probed first-success for the full-text attachment). The reference keeps
# the same registry implicitly in its enum + per-type branches
# (app/helper/enum.py:9-17, vbpl.py:474-512).
FLAVOR_REGISTRY = {
    "anle": {"marker": 'id="thuoctinh"', "attrs": ANLE_ATTR_CONFIG,
             "tabs": ()},
    "hopnhat": {"marker": 'class="vbInfo hopnhat"', "attrs": HOPNHAT_ATTR_CONFIG,
                "tabs": ("/doc.aspx?ItemID={id}", "/doc2.aspx?ItemID={id}")},
    "phapquy": {"marker": None, "attrs": DOC_ATTR_CONFIG, "tabs": ()},
}
OBJECT_RE = re.compile(r'<object data="([^"]+)"')

TOANVAN_RE = re.compile(r'<div class="toanvancontent">\n(.*?)</div>', re.S)
ANLE_TEXT_RE = re.compile(r'<div class="anle-text">\n(.*?)</div>', re.S)
# the reference's pdf_nodes = soup.find_all('div', {'id': 'filetaive'})
# multi-file harvest (anle.py:107-114)
FILETAIVE_RE = re.compile(r'<div id="filetaive"><a href="([^"]+)">')

CAPTION_RE = re.compile(r'<td class="title">(.*?)</td>', re.S)
NEXT_RE = re.compile(r'<a class="next" href="([^"]+)">')
IMG_RE = re.compile(r'<img class="payload" src="([^"]+)"')
HREF_RE = re.compile(r'href="([^"]+)"')
EDGE_RE = re.compile(
    r'<li class="related"><a href="/doc\.aspx\?ItemID=(\d+)">.*?'
    r'<span class="doc-type">(.*?)</span>', re.S)
ITEMID_RE = re.compile(r"ItemID=(\d+)")
ATTACH_RE = re.compile(r'<a class="attachment" href="([^"]+)"')
SEARCH_RESULT_RE = re.compile(
    r'<div class="result"><h3>(.*?)</h3>'
    r'(?:<a class="target" href="(?P<turl>[^"]+)"[^>]*>.*?</a>)?'
    r'<pre class="fulltext">(.*?)</pre></div>', re.S)
SEARCH_URL = "http://search.test/search.aspx?q={q}"
CONCETTI_URL = "http://concetti.test/documents/search"


def _iso_date(s: str | None):
    """'YYYY-MM-DD' -> datetime.date (None-propagating)."""
    import datetime as dt
    return dt.date.fromisoformat(s) if s else None
LUOCDO_RE = re.compile(
    r'<li class="luocdo"><a href="([^"]+)">(.*?)</a>'
    r'<span class="map-type">(.*?)</span></li>', re.S)

ORDER_STRIDE = 4096  # child order = parent * STRIDE + position; depth<=4 safe

PAYLOAD_SCHEMA = pa.schema([
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("phash", pa.int64()),
])

# data-plane side outputs, written by the parse tasks themselves (one
# parquet part per batch per table, content-addressed filename so a
# retried task overwrites its own file instead of duplicating rows) —
# nothing below ever transits a collector actor or the driver
EDGE_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string()),
                         ("label", pa.string())])
# the reference's full persisted vbpl surface (app/model/vbpl.py:7-27):
# original 7 columns plus sub_title, effective/expiration/gazette dates,
# state and applicable_information (new fields appended so positional
# consumers of the old prefix stay valid)
META_SCHEMA = pa.schema([("doc_id", pa.string()),
                         ("serial_number", pa.string()),
                         ("issuance_date", pa.string()),
                         ("doc_type", pa.string()),
                         ("issuing_authority", pa.string()),
                         ("title", pa.string()),
                         ("file_link", pa.string()),
                         ("sub_title", pa.string()),
                         ("effective_date", pa.string()),
                         ("expiration_date", pa.string()),
                         ("gazette_date", pa.string()),
                         ("state", pa.string()),
                         ("applicable_information", pa.string()),
                         ("sector", pa.string()),
                         ("publication_decision", pa.string()),
                         ("org_pdf_link", pa.string())])
# full hierarchy persisted (reference vbpl_toan_van model,
# app/model/vbpl.py:77-97 — all 8 hierarchy columns, not just chapter)
SECTION_SCHEMA = pa.schema([("vbpl_id", pa.string()),
                            ("section_number", pa.int32()),
                            ("section_name", pa.string()),
                            ("section_content", pa.string()),
                            ("chapter_number", pa.string()),
                            ("chapter_name", pa.string()),
                            ("part_number", pa.string()),
                            ("part_name", pa.string()),
                            ("mini_part_number", pa.string()),
                            ("mini_part_name", pa.string()),
                            ("big_part_number", pa.string()),
                            ("big_part_name", pa.string())])
# separate appendix table (reference vbpl_sub_part, app/model/vbpl.py:148-166)
SUB_PART_SCHEMA = pa.schema([("vbpl_id", pa.string()),
                             ("sub_section_title", pa.string()),
                             ("sub_section_part_number", pa.string()),
                             ("sub_section_part_title", pa.string())])
ANLE_SECTION_SCHEMA = pa.schema([("anle_id", pa.string()),
                                 ("context", pa.string()),
                                 ("solution", pa.string()),
                                 ("content", pa.string())])
# the reference's vbpl_doc_map table (app/model/vbpl.py:100-123) — the
# SECOND edge type, from the 'lược đồ' link phase (vbpl.py:706-804)
DOC_MAP_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string()),
                            ("map_label", pa.string())])
FAIL_SCHEMA = pa.schema([("url", pa.string()), ("status", pa.int32())])

# raw anle attachments (1 doc -> N binary files): deliberately carries NO
# doc id — the re-association stage must parse it back out of the
# filename, as the reference's process_anle does from the file path
# (anle.py:196-204)
ANLE_FILE_SCHEMA = pa.schema([("file_name", pa.string()),
                              ("data", pa.binary())])

# raw full-text HTML blob per doc (the reference's vbpl.html LONGTEXT
# column, app/model/vbpl.py:23, set to str(fulltext_node) at
# vbpl.py:458) — a separate content table rather than a meta column so
# metadata scans never drag the blobs; off by default (store_html)
HTML_SCHEMA = pa.schema([("doc_id", pa.string()), ("html", pa.string())])

SIDE_TABLES = ("edges", "doc_map", "meta", "sections", "sub_parts",
               "anle_sections", "anle_files", "html", "fails")
_SIDE_SCHEMAS = {"edges": EDGE_SCHEMA, "doc_map": DOC_MAP_SCHEMA,
                 "meta": META_SCHEMA,
                 "sections": SECTION_SCHEMA, "sub_parts": SUB_PART_SCHEMA,
                 "anle_sections": ANLE_SECTION_SCHEMA,
                 "anle_files": ANLE_FILE_SCHEMA, "html": HTML_SCHEMA,
                 "fails": FAIL_SCHEMA}


def _none_last(row: tuple):
    return tuple((x is None, x if x is not None else "") for x in row)


def write_part(out_dir: str, table: str, round_no: int, urls: list[str],
               data: pa.Table) -> None:
    """Write one batch's rows of ``table`` as
    ``<table>/round=<round_no>/part-<sha1 of the batch's URL set>.parquet``:
    deterministic content AND filename, so task retries and round re-runs
    overwrite instead of appending. An empty table writes nothing."""
    if not data.num_rows:
        return
    digest = hashlib.sha1("\n".join(sorted(urls)).encode()).hexdigest()[:16]
    d = os.path.join(out_dir, table, f"round={round_no}")
    os.makedirs(d, exist_ok=True)
    pq.write_table(data, os.path.join(d, f"part-{digest}.parquet"))


def extract_attributes(body: str, config: dict) -> dict[str, str | None]:
    """Config-driven attribute extraction (M2/M3/M4 pattern): field ->
    pattern-or-compiled-regex, one capture group; None on miss (the
    reference's date-or-None behavior, vbpl.py:554-558)."""
    out = {}
    for field, pattern in config.items():
        rx = pattern if hasattr(pattern, "search") else re.compile(pattern)
        m = rx.search(body)
        out[field] = m.group(1).strip() if m else None
    return out


class ParseStage:
    """Stateful parse stage: compiled configs + inline-attachment client
    built once (__init__), batch work in __call__. Link candidates and the
    batch's retried/failed/redirected counts (control data) push to the
    hash(host)-routed frontier actors with delivery confirmed before the
    batch returns; everything ELSE the parse produces
    — meta, sections, sub_parts, anle_sections, edges, fails — is DATA
    plane and is written by the task itself as per-batch parquet parts
    (content-addressed filenames: a retried task overwrites, never
    duplicates)."""

    def __init__(self, cfg: SimWebConfig, frontier_handles=None,
                 out_dir: str | None = None,
                 round_no: int = 0, max_retries: int = 3,
                 enrich: bool = True, enrich_threshold: float = 0.8,
                 pdf_codec=None, store_html: bool = False):
        from ..sources.pdfcodec import decode_simpdf
        self.pdf_codec = pdf_codec or decode_simpdf
        self.store_html = store_html
        self.web = SimWeb(cfg)
        self.max_retries = max_retries
        self.frontier = list(frontier_handles or [])
        self.out_dir = out_dir
        self.round_no = round_no
        # M10/J5: when a doc page lacks its full text, recover it from the
        # secondary search source by fuzzy title match (first hit with
        # ratio >= threshold wins — reference vbpl.py:459-470,922-988)
        self.enrich = enrich
        self.enrich_threshold = enrich_threshold
        self.attr_config = {k: re.compile(v) for k, v in DOC_ATTR_CONFIG.items()}
        self.anle_config = {k: re.compile(v) for k, v in ANLE_ATTR_CONFIG.items()}
        self.hopnhat_config = {k: re.compile(v)
                               for k, v in HOPNHAT_ATTR_CONFIG.items()}

    # ---- helpers ----

    def _fetch_inline(self, url: str) -> tuple[int, bytes]:
        status, _, body = self.web.get(url, attempt=0)
        r = 0
        while status >= 500 and r < self.max_retries:
            r += 1
            status, _, body = self.web.get(url, attempt=r)
        return status, body

    def _recover_fulltext(self, caption: str | None) -> list[str] | None:
        """External fuzzy full-text recovery (M10): search the secondary
        host by title, scan results IN ORDER, accept the first whose title
        ratio >= threshold (first-match-wins), return its text lines."""
        if not caption:
            return None
        from urllib.parse import quote

        from ..functions.fuzzy import ratio
        status, body = self._fetch_inline(SEARCH_URL.format(q=quote(caption)))
        if status != 200:
            return None
        for title, _turl, block in SEARCH_RESULT_RE.findall(body.decode()):
            if ratio(caption, title) >= self.enrich_threshold:
                if block.startswith("\n"):
                    block = block[1:]
                return block.split("\n")
        return None

    def _concetti_lookup(self, title: str | None, sub_title: str | None,
                         serial: str | None,
                         issuance_iso: str | None) -> dict | None:
        """Concetti JSON-API enrichment (reference search_concetti,
        vbpl.py:806-920): camelCase-marshalled query params (the engine's
        snake_to_camel converters), key types tried in reference order
        (title, sub_title, serial_number), <=2 pages x limit 5 per key,
        and 3-key fuzzy acceptance — the first item whose name OR number
        OR key reaches the ratio threshold wins."""
        import json
        from urllib.parse import urlencode

        from ..functions.fuzzy import ratio
        from ..functions.text import snake_to_camel

        base = {"target": "document", "sort": "keyword", "limit": 5,
                "select": "active,slug,key,name,number,issueDate,"
                          "effectiveDate,expiryDate,gazetteDate"}
        if issuance_iso:
            base[snake_to_camel("issue_date_from")] = issuance_iso
        for key in (title, sub_title, serial):
            if not key:
                continue
            for page in (1, 2):
                params = dict(base, key=key, page=page)
                status, body = self._fetch_inline(
                    CONCETTI_URL + "?" + urlencode(params))
                if status != 200:
                    continue
                items = json.loads(body.decode()).get("items", [])
                for it in items:
                    if max(ratio(key, it["name"]), ratio(key, it["number"]),
                           ratio(key, it["key"])) >= self.enrich_threshold:
                        return it
        return None

    def _resolve_by_title(self, href: str, title: str) -> str | None:
        """Doc-map title-search fallback (reference vbpl.py:758-804): an
        ItemID-less 'lược đồ' href is resolved by searching the title and
        taking the first fuzzy-matching result's target URL."""
        from ..functions.fuzzy import ratio
        status, body = self._fetch_inline(href)
        if status != 200:
            return None
        for res_title, turl, _block in SEARCH_RESULT_RE.findall(body.decode()):
            if turl and ratio(title, res_title) >= self.enrich_threshold:
                return turl
        return None

    def _parse_listing(self, rec: dict, body: str, links: list) -> None:
        next_m = NEXT_RE.search(body)
        next_href = next_m.group(1) if next_m else None
        for pos, href in enumerate(HREF_RE.findall(body), 1):
            if href == next_href:
                # pagination is a SIBLING, not a child: same depth,
                # order+1 — keeps pages ascending (reference O3) and the
                # order key bounded on arbitrarily long page chains
                links.append((urljoin(rec["url"], href), rec["depth"],
                              rec["discovery_order"] + 1))
            else:
                links.append((urljoin(rec["url"], href), rec["depth"] + 1,
                              rec["discovery_order"] * ORDER_STRIDE + pos))

    def _parse_doc(self, rec: dict, body: str, links: list,
                   payload_rows: list, out: dict[str, list]) -> None:
        from ..functions.text import dmy_to_iso
        from .fulltext import (ANLE_CONTENT, ANLE_CONTEXT, ANLE_SOLUTION,
                               extract_pdf_section, parse_fulltext)

        doc_id = int(ITEMID_RE.search(rec["url"]).group(1))
        caption_m = CAPTION_RE.search(body)
        caption = caption_m.group(1) if caption_m else None
        file_links: list[str] = []
        img_m = IMG_RE.search(body)
        if img_m:
            # first-success probe over candidate attachment paths (M11
            # semantics: up to 4 tab pages, stop at the first that has the
            # attachment — reference vbpl.py:996-1046)
            primary = urljoin(rec["url"], img_m.group(1))
            candidates = [primary, primary.replace("/img/", "/img-alt/")]
            status, data, img_url = 404, b"", primary
            for cand in candidates:
                status, data = self._fetch_inline(cand)
                if status == 200 and data:
                    img_url = cand
                    break
            if status == 200 and data:
                px = decode_image(data)
                h, w = px.shape
                file_links.append(img_url)
                payload_rows.append({
                    "image_id": f"img{doc_id:08d}", "bytes": data,
                    "w": w, "h": h, "fmt": img_url.rsplit(".", 1)[-1],
                    "caption": caption,
                    "phash": int(np.uint64(phash64(px)).astype(np.int64)),
                })
        # extra (non-payload) attachments: collected into the space-joined
        # file_link meta column (A5 semantics, reference vbpl.py:1043-1045)
        for href in ATTACH_RE.findall(body):
            file_links.append(urljoin(rec["url"], href))
        file_link = " ".join(file_links) if file_links else None
        # flavor dispatch by markup (FLAVOR_REGISTRY markers), extractor
        # parameterized per doc type (M2/M3/M4 regex dicts, reference
        # vbpl.py:542-548,610-618, anle.py:75-84)
        if FLAVOR_REGISTRY["hopnhat"]["marker"] in body:
            self._parse_hopnhat(rec, body, doc_id, caption, file_links, out)
        elif FLAVOR_REGISTRY["anle"]["marker"] in body:
            attrs = extract_attributes(body, self.anle_config)
            # multi-attachment harvest (reference anle.py:107-120): fetch
            # every div#filetaive link; the raw bytes land in the
            # anle_files side table keyed ONLY by filename — the
            # re-association stage parses the doc id back out of it
            file_hits = FILETAIVE_RE.findall(body)
            names, org_urls = [], []
            for href in file_hits:
                furl = urljoin(rec["url"], href)
                status, data = self._fetch_inline(furl)
                if status == 200 and data:
                    names.append(furl.rsplit("/", 1)[-1])
                    org_urls.append(furl)
                    out["anle_files"].append((names[-1], data))
            if names:
                # reference anle.py:117-120: file_link = local names,
                # org_pdf_link = source URLs, both space-joined
                file_link = " ".join(names)
            out["meta"].append((str(doc_id), attrs["serial_number"],
                                dmy_to_iso(attrs["adoption_date"]), "Án lệ",
                                None, attrs.get("title") or caption,
                                file_link, None,
                                dmy_to_iso(attrs.get("application_date")),
                                None,
                                dmy_to_iso(attrs.get("publication_date")),
                                attrs.get("state"), None,
                                attrs.get("sector"),
                                attrs.get("publication_decision"),
                                " ".join(org_urls) if org_urls else None))
            txt_m = ANLE_TEXT_RE.search(body)
            if txt_m and not file_hits:
                text = txt_m.group(1)
                out["anle_sections"].append(
                    (str(doc_id),
                     extract_pdf_section(ANLE_CONTEXT, text),
                     extract_pdf_section(ANLE_SOLUTION, text),
                     extract_pdf_section(ANLE_CONTENT, text)))
        else:
            attrs = extract_attributes(body, self.attr_config)
            # breadcrumb title (box-map) + td.title as sub_title source
            # (reference vbpl.py:594-601; the engine's `title` column
            # keeps the caption value both serve in this sim)
            bm = BOXMAP_RE.search(body)
            title = bm.group(1).strip() if bm else caption
            iss = dmy_to_iso(attrs["issuance_date"])
            eff = dmy_to_iso(attrs["effective_date"])
            gaz = dmy_to_iso(attrs["gazette_date"])
            st_m = VBINFO_STATE_RE.search(body)
            state = st_m.group(1).strip() if st_m else None
            exp_m = VBINFO_EXP_RE.search(body)
            exp = dmy_to_iso(exp_m.group(1).strip()) if exp_m else None
            if eff is None and self.enrich:
                # dates absent from the portal page -> concetti JSON-API
                # recovery; accepted item updates effective/expiry and the
                # state re-derives from the new dates (vbpl.py:875-892)
                it = self._concetti_lookup(title, caption,
                                           attrs["serial_number"], iss)
                if it is not None and it["effectiveDate"] is not None:
                    from ..sources.simweb import SIM_NOW

                    from .enrich import derive_effect_state
                    eff = it["effectiveDate"]
                    exp = it["expiryDate"] or exp
                    state = derive_effect_state(
                        _iso_date(eff), _iso_date(exp), SIM_NOW)
            out["meta"].append((str(doc_id), attrs["serial_number"], iss,
                                attrs["doc_type"], attrs["issuing_authority"],
                                title, file_link, caption, eff, exp, gaz,
                                state, attrs["applicable_information"],
                                None, None, None))
            tv_m = TOANVAN_RE.search(body)
            if self.store_html and tv_m:
                # raw full-text node verbatim (reference vbpl.html,
                # vbpl.py:458: str(fulltext))
                out["html"].append((str(doc_id), tv_m.group(0)))
            lines = tv_m.group(1).split("\n") if tv_m else (
                self._recover_fulltext(caption) if self.enrich else None)
            if lines is not None:
                secs, subs = parse_fulltext(doc_id, lines)
                for s in secs:
                    out["sections"].append(
                        (str(doc_id), s["section_number"], s["section_name"],
                         s["section_content"], s["chapter_number"],
                         s["chapter_name"], s["part_number"], s["part_name"],
                         s["mini_part_number"], s["mini_part_name"],
                         s["big_part_number"], s["big_part_name"]))
                for sp in (subs or []):
                    out["sub_parts"].append(
                        (str(doc_id), sp["sub_section_title"],
                         sp["sub_section_part_number"],
                         sp["sub_section_part_title"]))
        edge_hits = EDGE_RE.findall(body)
        for pos, (dst_id, label) in enumerate(edge_hits, 1):
            out["edges"].append((str(doc_id), dst_id, label))
            links.append((urljoin(rec["url"], f"/doc.aspx?ItemID={dst_id}"),
                          rec["depth"] + 1,
                          rec["discovery_order"] * ORDER_STRIDE + pos))
        # the SECOND link phase: 'lược đồ' doc-map entries; ItemID-less
        # hrefs resolve through the title search (child order continues
        # after the related-doc positions — deterministic)
        for i, (href, title, label) in enumerate(LUOCDO_RE.findall(body), 1):
            m = ITEMID_RE.search(href)
            tgt_url = (urljoin(rec["url"], f"/doc.aspx?ItemID={m.group(1)}")
                       if m else self._resolve_by_title(href, title))
            if tgt_url is None:
                continue
            dst = ITEMID_RE.search(tgt_url).group(1)
            out["doc_map"].append((str(doc_id), dst, label))
            links.append((tgt_url, rec["depth"] + 1,
                          rec["discovery_order"] * ORDER_STRIDE
                          + len(edge_hits) + i))

    def _parse_hopnhat(self, rec: dict, body: str, doc_id: int,
                       caption: str | None, file_links: list[str],
                       out: dict[str, list]) -> None:
        """Consolidated-doc flavor (reference vbpl.py:514-573): vbInfo
        attribute list; full text behind a PDF <object> discovered
        first-success over the registry's tab URLs (main page, then the
        second tab variant — vbpl.py:474-512); PDF bytes decoded via the
        pluggable codec, watermark-stripped, then the standard fulltext
        state machine."""
        from ..functions.text import dmy_to_iso
        from .fulltext import ASPOSE_WATERMARK, parse_fulltext

        attrs = extract_attributes(body, self.hopnhat_config)
        # PDF-object discovery: main page first, then remaining tab URLs
        obj_m = OBJECT_RE.search(body)
        if obj_m is None:
            for tab in FLAVOR_REGISTRY["hopnhat"]["tabs"][1:]:
                status, tab_body = self._fetch_inline(
                    urljoin(rec["url"], tab.format(id=doc_id)))
                if status == 200:
                    obj_m = OBJECT_RE.search(tab_body.decode())
                    if obj_m:
                        break
        pdf_url = None
        if obj_m is not None:
            pdf_url = urljoin(rec["url"], obj_m.group(1))
            status, data = self._fetch_inline(pdf_url)
            if status == 200 and data:
                file_links.append(pdf_url)
                try:
                    text = self.pdf_codec(data)
                except NotImplementedError:
                    text = None
                if text is not None:
                    text = text.replace(ASPOSE_WATERMARK, "")
                    lines = text.lstrip("\n").split("\n")
                    secs, subs = parse_fulltext(doc_id, lines)
                    for s in secs:
                        out["sections"].append(
                            (str(doc_id), s["section_number"],
                             s["section_name"], s["section_content"],
                             s["chapter_number"], s["chapter_name"],
                             s["part_number"], s["part_name"],
                             s["mini_part_number"], s["mini_part_name"],
                             s["big_part_number"], s["big_part_name"]))
                    for sp in (subs or []):
                        out["sub_parts"].append(
                            (str(doc_id), sp["sub_section_title"],
                             sp["sub_section_part_number"],
                             sp["sub_section_part_title"]))
        out["meta"].append((str(doc_id), attrs["serial_number"],
                            None,  # no issuance field in the hợp nhất dict
                            attrs["doc_type"], attrs["issuing_authority"],
                            caption,
                            " ".join(file_links) if file_links else None,
                            None,
                            dmy_to_iso(attrs["effective_date"]), None,
                            dmy_to_iso(attrs["gazette_date"]), None, None,
                            None, None,
                            # org_pdf_link = the portal PDF source URL
                            # (reference vbpl.py:492,508)
                            pdf_url))

    # ---- per-batch data-plane sink ----

    def _write_side(self, batch_urls: list[str], out: dict[str, list]) -> None:
        """One part per nonempty side table, rows sorted and deduplicated."""
        for name, rows in out.items():
            if not rows:
                continue
            cols = list(zip(*sorted(set(rows), key=_none_last)))
            write_part(self.out_dir, name, self.round_no, batch_urls,
                       pa.table({f.name: pa.array(list(c), f.type)
                                 for f, c in zip(_SIDE_SCHEMAS[name], cols)}))

    # ---- batch entry ----

    def __call__(self, batch: pa.Table) -> pa.Table:
        links: list[tuple] = []
        payload_rows: list[dict] = []
        out: dict[str, list] = {k: [] for k in SIDE_TABLES}
        retried = 0
        redirected = 0
        for rec in batch.to_pylist():
            retried += int(rec.get("retries") or 0)
            if rec["status"] in (301, 302, 303, 307, 308):
                # redirect = deterministic frontier RE-OFFER at the same
                # (depth, discovery_order) priority; the target dedups
                # through the seen filter like any discovered link, so a
                # target that is also linked directly is fetched once
                links.append((urljoin(rec["url"], rec["body"].decode()),
                              rec["depth"], rec["discovery_order"]))
                redirected += 1
                continue
            if rec["status"] != 200:
                out["fails"].append((rec["url"], int(rec["status"])))
                continue
            body = rec["body"].decode()
            if "/listing.aspx" in rec["url"]:
                self._parse_listing(rec, body, links)
            elif "/doc.aspx" in rec["url"]:
                self._parse_doc(rec, body, links, payload_rows, out)
        if self.out_dir is not None:
            self._write_side(batch["url"].to_pylist(), out)
        # push control data; ray.get ensures delivery before the batch
        # ends. The lineage counters ride on partition 0's stage call.
        counts = (retried, len(set(out["fails"])), redirected)
        if self.frontier and (links or any(counts)):
            buckets: dict[int, list] = {}
            for rec in links:
                buckets.setdefault(
                    partition_of(rec[0], len(self.frontier)), []).append(rec)
            if any(counts):
                buckets.setdefault(0, [])
            ray.get([self.frontier[p].stage.remote(
                b, *(counts if p == 0 else ())) for p, b in buckets.items()])
        if not payload_rows:
            return PAYLOAD_SCHEMA.empty_table()
        return pa.Table.from_pylist(payload_rows, schema=PAYLOAD_SCHEMA)
