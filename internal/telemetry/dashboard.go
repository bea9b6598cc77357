package telemetry

// dashboardHTML is the /debug/telemetry page: a dependency-free view over
// /telemetry/v1/series?metric=all. Everything renders client-side from that
// JSON endpoint, so the page stays a single constant string. Design and
// method names are whatever a client sent, so every table cell goes
// through esc before it reaches innerHTML.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>streak telemetry</title>
<style>
  :root { color-scheme: light dark; }
  body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5rem; max-width: 70rem; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.6rem; }
  table { border-collapse: collapse; margin: .4rem 0; }
  th, td { border: 1px solid #8885; padding: .2rem .6rem; text-align: right; }
  th:first-child, td:first-child { text-align: left; }
  .tiles { display: flex; gap: .8rem; flex-wrap: wrap; margin: .6rem 0; }
  .tile { border: 1px solid #8885; border-radius: 6px; padding: .5rem .9rem; }
  .tile b { display: block; font-size: 1.3rem; }
  .muted { opacity: .65; } svg { display: block; }
  .spark path { fill: none; stroke: #4477cc; stroke-width: 1.5; }
</style>
</head>
<body>
<h1>streak telemetry lake</h1>
<p class="muted">window <select id="win">
  <option value="">all</option><option value="15m">15m</option>
  <option value="1h">1h</option><option value="24h">24h</option>
</select> · <span id="meta"></span></p>
<div class="tiles" id="tiles"></div>
<h2>solve latency by method</h2><div id="latency"></div>
<h2>cache serving mix</h2><div id="cache"></div>
<h2>congestion drift</h2><div id="drift"></div>
<script>
const $ = id => document.getElementById(id);
const fmtUS = us => us >= 1e6 ? (us/1e6).toFixed(2)+' s'
  : us >= 1e3 ? (us/1e3).toFixed(1)+' ms' : us+' µs';
const pct = f => (100*f).toFixed(1)+'%';
const esc = x => String(x).replace(/[&<>"']/g, c =>
  ({'&':'&amp;','<':'&lt;','>':'&gt;','"':'&quot;',"'":'&#39;'})[c]);
function tile(label, value) {
  return '<div class="tile"><b>'+value+'</b><span class="muted">'+label+'</span></div>';
}
function table(headers, rows) {
  let h = '<table><tr>'+headers.map(x=>'<th>'+esc(x)+'</th>').join('')+'</tr>';
  for (const r of rows) h += '<tr>'+r.map(x=>'<td>'+esc(x)+'</td>').join('')+'</tr>';
  return h+'</table>';
}
function spark(values, w=180, h=36) {
  if (values.length < 2) return '<span class="muted">'+(values.length? values[0].toPrecision(4):'–')+'</span>';
  const min = Math.min(...values), max = Math.max(...values), span = (max-min) || 1;
  const pts = values.map((v,i)=>
    (i*(w-4)/(values.length-1)+2).toFixed(1)+','+((h-4)*(1-(v-min)/span)+2).toFixed(1));
  return '<svg class="spark" width="'+w+'" height="'+h+'"><path d="M'+pts.join(' L')+'"/></svg>';
}
async function load() {
  const win = $('win').value, q = win ? '&window='+win : '';
  const series = await (await fetch('/telemetry/v1/series?metric=all'+q)).json();
  $('meta').textContent = series.samples+' solve report(s)';
  const rt = series.rates || {};
  $('tiles').innerHTML =
    tile('solves', rt.solves ?? 0) +
    tile('degraded rate', pct(rt.degraded_rate ?? 0)) +
    tile('audit violation rate', pct(rt.violation_rate ?? 0)) +
    tile('job retries', rt.retries ?? 0);
  const lat = series.latency || {};
  $('latency').innerHTML = Object.keys(lat).length
    ? table(['method','count','p50','p90','p99','max'],
        Object.entries(lat).map(([m,s]) =>
          [m, s.count, fmtUS(s.p50_us), fmtUS(s.p90_us), fmtUS(s.p99_us), fmtUS(s.max_us)]))
    : '<p class="muted">no solves recorded yet</p>';
  const c = series.cache;
  $('cache').innerHTML = c && c.solves
    ? table(['solves','hit','incremental','cold','cold-fallback','bypass','hit ratio','incr ratio'],
        [[c.solves, c.hits, c.incrementals, c.cold, c.cold_fallbacks, c.bypass,
          pct(c.hit_ratio), pct(c.incremental_ratio)]])
    : '<p class="muted">no cache-served solves in window</p>';
  const d = series.drift || [];
  $('drift').innerHTML = d.length
    ? table(['time','design','mean util %','overflow edges','drift %'],
        d.slice(-20).map(p => [new Date(p.t_ms).toLocaleTimeString(), p.design || '–',
          p.mean_util_pct.toFixed(2), p.overflow_edges, p.drift_pct.toFixed(2)]))
      + spark(d.map(p => p.mean_util_pct))
    : '<p class="muted">no congestion snapshots in window</p>';
}
$('win').addEventListener('change', load);
load(); setInterval(load, 5000);
</script>
</body>
</html>
`
