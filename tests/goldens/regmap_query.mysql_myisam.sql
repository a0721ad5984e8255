create or replace view vwregions as
select
    a.id as a_id,
    b.id as b_id,
    a.chromosome as chromosome,
    case
        when a.end_pos <= b.end_pos and a.start_pos >= b.start_pos then a.end_pos - a.start_pos
        when b.end_pos <= a.end_pos and b.start_pos >= a.start_pos then b.end_pos - b.start_pos
        when a.end_pos <= b.end_pos and a.start_pos <= b.start_pos then a.end_pos - b.start_pos
        when a.end_pos >= b.end_pos and a.start_pos >= b.start_pos then b.end_pos - a.start_pos
    end as bpooverlap,
    abs((a.end_pos + a.start_pos) div 2 - (b.end_pos + b.start_pos) div 2) as centredistance,
    abs((a.end_pos + a.start_pos) - (b.end_pos + b.start_pos)) as twicecentredistance
from regions a
join regions b
    on a.chromosome = b.chromosome
where a.regiondesc_id = 1
  and b.regiondesc_id = 2
  and a.start_pos >= 0
  and a.end_pos >= a.start_pos
  and b.start_pos >= 0
  and b.end_pos >= b.start_pos;

select a_id, b_id, chromosome, bpooverlap, centredistance
from vwregions
where bpooverlap >= 1
order by a_id, b_id;
